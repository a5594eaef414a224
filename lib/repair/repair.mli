(** Online reallocation under disruption: minimal-perturbation repair
    with a mixed-criticality degradation ladder.

    A {!t} tracks a running system — the current problem and the
    allocation in force — together with a long-lived grouped-encoding
    session ({!Taskalloc_explain.Explain.Session}).  When a disruption
    event arrives ({!event}: ECU failure, WCET overrun, task arrival,
    bus degradation), {!repair} computes a replacement allocation that
    {e minimizes the number of migrated tasks} subject to all deadlines:

    - the allocation in force is tried first: when the event dooms no
      task, keeps the task numbering, and the disrupted problem still
      passes {!Taskalloc_rt.Check} and then {!Taskalloc_rt.Sim} with
      it, nobody moves and no solver runs;
    - ECU failures that doom no task are {e assumption-expressible}: the
      live session is reused warm (no re-encoding) by assuming the
      negated placement selector of every task on the failed ECU, and
      the migration objective — a sum of indicator bits, one per task
      that could stay on its old seat — is minimized with
      {!Taskalloc_opt.Opt.minimize} in incremental mode
      ([~persist_bounds:false], so the shared session stays sound for
      later queries);
    - every other event changes the arithmetic of the encoding and
      rebuilds the session against the disrupted problem, still solving
      incrementally within the repair.

    When no full repair exists, a criticality-aware degradation ladder
    sheds tasks whose criticality lies {e below the highest level
    present} — in increasing criticality order, and within a level
    highest-utilization first, so the fewest tasks are lost — until the
    remaining (HI) tasks fit or no sheddable task remains.  Tasks at
    the highest criticality level are never shed.

    With [~explain:true] each voluntary migration and each shed is
    attributed to the constraint groups that forced it, via
    failed-assumption cores shrunk by {!Taskalloc_explain.Explain.shrink}.

    Every accepted repair is validated end-to-end: re-checked with the
    independent analyzer ({!Taskalloc_rt.Check}) and simulated in
    {!Taskalloc_rt.Sim}; the deadline-miss count rides in the result.

    All of this is anytime: a tripped {!Budget.t} yields a clean
    {!outcome.Unknown} and leaves the state untouched — the
    pre-disruption allocation stays in force, never a torn state. *)

open Taskalloc_rt
open Taskalloc_core
module Budget = Taskalloc_sat.Budget

(** {1 Disruption events} *)

type event =
  | Ecu_failure of { ecu : int }
      (** the ECU stops running application tasks (it may keep routing
          as a gateway): it joins the barred set *)
  | Wcet_overrun of { task : int; percent : int }
      (** observed execution demand of [task] (an id in the {e current}
          problem) is [percent]% of the declared WCETs; entries scaled
          beyond the deadline are dropped (the task can no longer run
          there) *)
  | Task_arrival of {
      name : string;
      period : int;
      deadline : int;
      memory : int;
      criticality : int;
      wcets : (int * int) list;
    }  (** a new task hot-added to the system (no messages) *)
  | Bus_degradation of { medium : int; percent : int }
      (** per-byte transfer time of the medium scaled to [percent]%
          (e.g. 200 = half the bandwidth) *)

exception Invalid_event of string
(** Raised when an event references an unknown ECU, task or medium, or
    carries non-positive parameters. *)

val pp_event : Model.problem -> Format.formatter -> event -> unit

(** Outcome of applying an event to a problem, before any solving. *)
type disrupted = {
  d_problem : Model.problem;
      (** the disrupted problem over surviving tasks, renumbered densely *)
  d_kept : int array;  (** new task id -> pre-event task id *)
  d_doomed : int list;
      (** pre-event ids of tasks the event left without any admissible
          ECU: they cannot run anywhere and must be shed (or the system
          is irreparable if their criticality forbids shedding) *)
}

val apply_event : Model.problem -> event -> disrupted
(** Pure model-level transformation; raises {!Invalid_event}. *)

(** {1 Repair results} *)

type migration = {
  m_task : string;
  m_from : int;
  m_to : int;
  m_forced : bool;
      (** the old seat is inadmissible after the event (failed ECU,
          overrun beyond the deadline): the move was unavoidable and is
          excluded from the minimized objective *)
  m_because : Encode.group list;
      (** with [~explain:true]: a MUS of constraint groups that is
          unsatisfiable with the task pinned on its old seat — the
          constraints that forced this migration.  Empty for forced
          moves, when explanation is off, or when the old seat alone
          was feasible (the move served the global optimum instead). *)
}

type shed = {
  s_task : string;
  s_criticality : int;
  s_because : Encode.group list;
      (** with [~explain:true]: a core of the infeasibility that this
          shed resolved (empty for doomed tasks, which shed themselves) *)
}

type repair = {
  problem : Model.problem;  (** the surviving problem the allocation solves *)
  allocation : Model.allocation;
  migrations : migration list;
  sheds : shed list;
  degraded : bool;  (** [sheds <> []] *)
  warm : bool;  (** repaired on the live session, no re-encoding *)
  optimal : bool;
      (** migration count proven minimal (budget did not interrupt the
          descent) *)
  solves : int;
      (** solver calls spent on this repair; 0 when the allocation in
          force answered the event *)
  check_violations : int;
      (** independent analyzer violations — non-zero only on an
          encoder/analyzer disagreement, surfaced loudly *)
  sim_misses : int;
      (** deadline misses observed by {!Taskalloc_rt.Sim} over its
          default horizon; [-1] when not simulated: [~validate:false],
          or the analyzer rejected the allocation *)
  time_s : float;
}

type outcome =
  | Repaired of repair
  | Irreparable of { core : Encode.group list; why : string }
      (** no repair exists even after shedding every sheddable task;
          the state is untouched *)
  | Unknown  (** budget tripped; the state is untouched *)

val pp_outcome : Model.problem -> Format.formatter -> outcome -> unit
val outcome_to_json : outcome -> Taskalloc_obs.Json.t

(** {1 Online repair sessions} *)

type t

val create :
  ?options:Encode.options -> Model.problem -> Model.allocation -> t
(** Start tracking a running system.  Nothing is encoded yet: the
    grouped session is built when a repair first needs the solver
    (the warm ECU-failure path builds it against the pre-event
    problem), and events the allocation in force answers need none. *)

val problem : t -> Model.problem
(** The current (post-disruption, post-shed) problem. *)

val allocation : t -> Model.allocation
(** The allocation currently in force (for {!problem}'s numbering). *)

val shed_so_far : t -> string list
(** Names of tasks shed across all repairs, oldest first. *)

val find_task : t -> string -> int option
(** Current id of a task by name (ids shift as tasks are shed). *)

val find_medium : t -> string -> int option

val repair :
  ?budget:Budget.t ->
  ?allow_shed:bool ->
  ?explain:bool ->
  ?validate:bool ->
  t ->
  event ->
  outcome
(** Apply one disruption and repair.  On [Repaired] the state advances
    to the new problem and allocation; on [Irreparable] and [Unknown]
    the state is {e unchanged} (the caller keeps running the
    pre-disruption allocation).  [allow_shed] (default true) enables
    the degradation ladder; without it any full-repair infeasibility is
    [Irreparable].  [explain] (default false) attributes migrations
    and sheds to forcing constraint groups via MUS extraction (extra
    probes, budget-aware).  [validate] (default true) re-checks and
    simulates every accepted repair.  An answer from the allocation in
    force is always validated (that is how it is recognized) and is
    returned even when [budget] is spent: it costs no solver work.
    Raises {!Invalid_event} on malformed events; never raises on
    budget expiry. *)
