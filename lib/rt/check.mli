(** Independent feasibility checker.

    Re-derives schedulability of a complete allocation from first
    principles — placement restrictions, separation, memory, barred
    gateways, route validity (including the [v(h)] endpoint condition),
    TDMA slot sizing, task response times and end-to-end message
    latencies — without using any data produced by the SAT encoder.
    Every allocation the optimizer returns is passed through here. *)

open Model

type violation =
  | Placement_not_allowed of { task : int; ecu : int }
  | Separation_violated of { task_a : int; task_b : int; ecu : int }
  | Memory_exceeded of { ecu : int; used : int; capacity : int }
  | Barred_ecu_used of { task : int; ecu : int }
  | Task_deadline_miss of { task : int; response : int option; deadline : int }
  | Invalid_route of { msg : int; reason : string }
  | Message_deadline_miss of { msg : int; latency : int option; deadline : int }
  | Slot_too_small of { medium : int; ecu : int; slot : int; needed : int }

val pp_violation : Format.formatter -> violation -> unit

val check_placement : problem -> allocation -> violation list
val check_routes : problem -> allocation -> violation list
val check_tasks : problem -> allocation -> violation list
val check_slots : problem -> allocation -> violation list
val check_messages : problem -> allocation -> violation list

val check : problem -> allocation -> violation list
(** All checks; empty list = feasible.  When a task is seated outside
    its WCET list, only the {!check_placement} violations are returned:
    the timing checks need a WCET on every seat. *)

val is_feasible : problem -> allocation -> bool

val pp_report : Format.formatter -> violation list -> unit
