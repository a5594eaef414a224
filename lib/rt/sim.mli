(** Tick-level discrete-event simulation of an allocated system: each
    ECU runs a preemptive fixed-priority scheduler, TDMA media rotate
    through their slot tables, priority media arbitrate bus-wide, and
    gateways store and forward.  All tasks start synchronously at
    t = 0 (the critical instant) and release periodically.

    Because the analytical response times of {!Analysis} are worst-case
    bounds, for a feasible allocation the simulation must observe
    [response <= analyzed bound] for every task and never miss a
    deadline — the test suite enforces both, using the simulator as an
    executable cross-check of the analysis and, transitively, the SAT
    encoder. *)

open Model

type trace = {
  horizon : int;
  task_max_response : int array;  (** per task id; 0 when never completed *)
  task_activations : int array;
  msg_max_latency : int array;  (** per message id; 0 when never delivered *)
  msg_deliveries : int array;
  deadline_misses : (string * int) list;  (** description, tick *)
}

val default_horizon : problem -> int
(** Eight times the longest period. *)

val simulate : ?horizon:int -> ?offsets:int array -> problem -> allocation -> trace
(** [offsets] shifts each task's first release (default all zero: the
    synchronous critical instant).  Every task must be seated on an
    ECU of its WCET list (no [Placement_not_allowed] from
    {!Check.check_placement}).  Raises {!Model.Invalid_model} on a
    length mismatch or on a seat without a WCET. *)

val missed : trace -> bool

val pp_trace : Format.formatter -> trace -> unit
