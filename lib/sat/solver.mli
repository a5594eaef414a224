(** CDCL SAT solver with native pseudo-Boolean constraints.

    The clause engine follows MiniSat with Glucose-style hot-path
    upgrades: two-watched literals with blocking literals, first-UIP
    learning, VSIDS branching with phase saving, Luby restarts and
    LBD-aware deletion of learnt clauses (glue clauses — literal block
    distance at most 2 — are never deleted).  Pseudo-Boolean
    constraints [sum a_i * l_i >= b] are propagated natively with the
    counter (slack) method and explained clausally to the conflict
    analyzer, in the style of the GOBLIN engine used by the paper.

    Typical use:
    {[
      let s = Solver.create () in
      let x = Solver.new_var s and y = Solver.new_var s in
      Solver.add_clause s [ Lit.of_var x; Lit.of_var y ];
      Solver.add_pb_geq s [ (2, Lit.of_var x); (1, Lit.of_var y) ] 2;
      match Solver.solve s with
      | Sat -> assert (Solver.model_value s (Lit.of_var x))
      | Unsat | Unknown -> ...
    ]} *)

type t
(** A solver instance.  Constraints may only be added at decision
    level 0, i.e. before or between [solve] calls. *)

type result = Sat | Unsat | Unknown
(** [Unknown] is only returned when a [max_conflicts] or {!Budget.t}
    limit ran out.  It is a clean pause, not a failure: the solver
    state — including every clause learnt so far — survives, and a
    later [solve] with a larger (or no) budget resumes the search. *)

val create : unit -> t

(** {1 Diversification}

    Portfolio workers differentiate themselves through [config]:
    branching randomness, VSIDS/clause-activity decay, the Luby restart
    unit and the phase-saving default.  [default_config] reproduces the
    solver's built-in behavior exactly, so
    [set_config t default_config] is observationally a no-op — this is
    what makes a 1-worker portfolio bit-for-bit identical to the plain
    sequential solver. *)

type config = {
  seed : int;  (** RNG seed; only consulted when [random_freq > 0] *)
  random_freq : float;
      (** probability that a branching decision picks a random
          unassigned variable instead of the VSIDS maximum *)
  var_decay : float;  (** VSIDS activity decay factor (default 0.95) *)
  clause_decay : float;  (** learnt-clause activity decay (default 0.999) *)
  restart_first : int;  (** Luby restart unit in conflicts (default 100) *)
  init_polarity : bool;
      (** phase-saving default assumed for unassigned variables *)
}

val default_config : config

val set_config : t -> config -> unit
(** Apply a diversification config.  May be called at any point between
    [solve] calls; only the saved phase of currently unassigned
    variables is rewritten. *)

val set_seed : t -> int -> unit
(** Reseed the branching RNG only, leaving other knobs untouched. *)

val new_var : t -> int
(** Allocate a fresh Boolean variable and return its index. *)

val new_vars : t -> int -> int list
(** [new_vars t n] allocates [n] fresh variables. *)

val add_clause : t -> Lit.t list -> unit
(** Add a disjunction of literals.  Tautologies are dropped; literals
    already false at level 0 are removed; an empty (or emptied) clause
    makes the instance unsatisfiable. *)

val add_pb_geq : t -> (int * Lit.t) list -> int -> unit
(** [add_pb_geq t pairs degree] adds [sum a_i * l_i >= degree].  All
    coefficients must be positive and the literals must be over
    distinct variables — use {!Taskalloc_pb.Pb} for arbitrary linear
    constraints; it normalizes into this form. *)

val add_at_most_one : t -> Lit.t list -> unit
val add_at_least_one : t -> Lit.t list -> unit
val add_exactly_one : t -> Lit.t list -> unit

val solve :
  ?assumptions:Lit.t list -> ?max_conflicts:int -> ?budget:Budget.t -> t -> result
(** Decide satisfiability under the given assumption literals.
    Assumptions do not permanently constrain the instance.  After
    [Sat], the model is available through {!model_value}.

    [max_conflicts] caps the conflicts of this call alone; [budget] is
    a shared {!Budget.t} charged with the conflicts and propagations
    consumed here and polled every [Budget.check_every] conflicts —
    one budget threaded through many calls governs their total spend.
    Exhaustion of either yields [Unknown] with the instance reusable:
    call [solve] again with more budget to continue the search. *)

val model_value : t -> Lit.t -> bool
(** Value of a literal in the most recent satisfying assignment.  Only
    meaningful directly after [solve] returned [Sat], and only for
    variables that existed at that point. *)

val unsat_core : t -> Lit.t list
(** Failed-assumption core of the most recent [solve] that returned
    [Unsat]: a subset of the [~assumptions] passed to that call which is
    already inconsistent with the instance (computed by final-conflict
    analysis, MiniSat's [analyzeFinal]).  The empty list means the
    instance is unsatisfiable regardless of assumptions.  The core is a
    sound over-approximation of a minimal one — callers wanting
    minimality must shrink it (see [lib/explain]).  Any later [solve]
    clears it; calling this when the last answer was not [Unsat] raises
    [Invalid_argument]. *)

(** {1 Proof logging}

    With a proof sink installed the solver emits a DRUP-style trace:
    every learnt clause and every deletion is logged, and clausal
    explanations of PB propagations are logged as [Step_pb] lemmas so
    that a checker without a PB engine can still replay the clausal
    reasoning.  A run that ends in a level-0 refutation closes the
    trace with the empty clause; {!Taskalloc_proof.Proof.check} (or any
    standard DRUP checker, for pure-CNF instances) can then certify the
    [Unsat] answer independently.  Traces accumulate across [solve]
    calls, so a budget-interrupted search resumed to [Unsat] still
    yields one checkable trace.  Unsat answers under [~assumptions]
    are conditional and do not produce an empty clause. *)

type proof_step =
  | Step_rup of Lit.t array
      (** clause derivable by reverse unit propagation from the input
          clauses plus all earlier additions; [Step_rup [||]] is the
          refutation *)
  | Step_pb of Lit.t array
      (** clause implied by a single input PB constraint under the
          unit-propagation closure of the clause database *)
  | Step_delete of Lit.t array  (** clause removed from the database *)

val set_proof_sink : t -> (proof_step -> unit) option -> unit
(** Install (or remove) the proof sink.  Install it before adding
    constraints: level-0 simplification during [add_clause] /
    [add_pb_geq] can already refute the instance and must be logged. *)

val proof_on : t -> bool
(** Is a proof sink currently installed?  The portfolio layer uses
    this to disable clause import into proof-logging workers. *)

val ok : t -> bool
(** [false] once the instance has been proved unsatisfiable at level 0. *)

(** {1 Clause sharing}

    Hooks used by the portfolio layer to exchange learnt clauses
    between workers solving the same instance.  The export hook
    observes every learnt clause as it is recorded (the array must be
    copied if retained — the solver owns it).  The import hook is
    polled at decision level 0 between restart episodes and returns
    [(lits, lbd)] pairs to adopt; imported clauses enter the learnt
    database (units are enqueued, falsified clauses refute the
    instance).  A proof-logging solver never imports: a foreign clause
    is not RUP-derivable from the local trace, and the importing side
    is where soundness of the DRUP interlock is enforced. *)

val set_export_hook : t -> (Lit.t array -> lbd:int -> unit) option -> unit
val set_import_hook : t -> (unit -> (Lit.t array * int) list) option -> unit

(** {1 Inprocessing}

    Formula simplification between restart episodes: clause
    vivification, occurrence-list subsumption/self-subsumption and
    bounded variable elimination (BVE).  The passes are exposed
    individually; {!Inprocess} schedules them behind
    {!set_inprocess_hook}.  All three only derive clauses implied by
    the problem clauses alone, so they are sound under incremental use
    with arbitrary assumptions.  With a proof sink installed, derived
    clauses are logged before the clauses they replace are deleted;
    BVE stashes (rather than logs deletion of) the original clauses of
    an eliminated variable, so a DRUP checker keeps them and variable
    {e reintroduction} needs no trace event.

    Frozen variables are exempt from elimination.  Assumption
    variables are frozen automatically by {!solve}; adding a clause or
    PB constraint (or assuming a literal) over an already-eliminated
    variable transparently reintroduces it: the stashed clauses rejoin
    the database and the variable is frozen from then on.  After a
    [Sat] answer the model is extended over eliminated variables, so
    {!model_value} always answers for the full original formula. *)

val freeze : t -> int -> unit
(** Exempt a variable from elimination (reintroducing it first if a
    previous pass eliminated it).  Freezing is permanent. *)

val is_frozen : t -> int -> bool
val is_eliminated : t -> int -> bool

val n_eliminated : t -> int
(** Number of currently eliminated variables. *)

val vivify_pass : ?max_probes:int -> t -> int
(** Probe clauses under the negation of their own literals, shortening
    those that close early; round-robins across the database.  Returns
    the number of clauses shortened. *)

val subsume_pass : ?max_checks:int -> t -> int
(** Occurrence-list backward subsumption and self-subsumption over the
    problem clauses.  Returns the number of clauses removed or
    strengthened. *)

val bve_pass : ?max_elims:int -> ?occ_limit:int -> ?len_limit:int -> t -> int
(** Bounded variable elimination: resolve away unfrozen clause-only
    variables whose elimination does not grow the formula.  Returns the
    number of variables eliminated. *)

type simp_stats = {
  vivified : int;
  strengthened : int;
  subsumed : int;
  eliminated_vars : int;  (** currently eliminated (reintroduction deducts) *)
  resolvents : int;
}

val simp_stats : t -> simp_stats
(** Cumulative inprocessing counters. *)

val set_inprocess_hook : t -> (t -> unit) option -> unit
(** Install a hook invoked at decision level 0 between restart
    episodes, the canonical slot for running the passes above (see
    {!Inprocess}). *)

(** {1 Lookahead probes}

    Support for cube-and-conquer splitting: score candidate decision
    variables by the unit-propagation consequences of each polarity. *)

type probe_result =
  | Probe of { pos_gain : int; neg_gain : int }
      (** trail growth from asserting the variable true / false *)
  | Probe_failed_lit
      (** one polarity hit a conflict: the complementary unit was
          learnt (and logged), strengthening the instance *)
  | Probe_refuted  (** both polarities conflict: the instance is Unsat *)

val probe_var : t -> int -> probe_result
(** Probe both polarities of an unassigned variable at decision level
    0.  May only be called between [solve] calls. *)

val is_assigned : t -> int -> bool
(** Is the variable currently assigned (at any decision level)?
    Out-of-range variables count as unassigned. *)

val top_vars : t -> int -> int list
(** The [n] unassigned, uneliminated variables of highest VSIDS
    activity, most active first. *)

(** {1 Constraint database inspection} *)

val fold_clauses : ('a -> Lit.t list -> 'a) -> 'a -> t -> 'a
(** Fold over the problem clauses (learnt clauses excluded).  Clauses
    retired by inprocessing are included — BVE-stashed originals keep
    the fold logically equivalent to the input formula, and
    proof-graveyard clauses keep it a superset of everything a logged
    trace references — so handing the fold to {!Taskalloc_proof.Proof}
    as "the formula" stays sound. *)

val fold_pbs : ('a -> (int * Lit.t) list * int -> 'a) -> 'a -> t -> 'a
(** Fold over the PB constraints in normalized [>=] form. *)

val level0_units : t -> Lit.t list
(** Literals forced at decision level 0 (top-level units). *)

(** {1 Statistics}

    The counter accessors below ([n_conflicts], [n_decisions],
    [n_propagations], [n_restarts], [n_learnt_total], …) are
    {e cumulative over the solver's lifetime}: they persist across
    incremental [solve] calls and are never reset.  Callers measuring
    a single probe (Opt bound probes, Explain deletion candidates)
    must use {!last_solve_stats}, which reports the deltas of the most
    recent [solve] call only — differencing cumulative counters by
    hand is how probe metrics get cross-contaminated. *)

val n_vars : t -> int
val n_clauses : t -> int
val n_pbs : t -> int
val n_learnts : t -> int
val n_conflicts : t -> int
val n_decisions : t -> int
val n_propagations : t -> int
val n_restarts : t -> int

val n_learnt_total : t -> int
(** Cumulative count of clauses ever learnt, including deleted ones. *)

val n_reduce_dbs : t -> int
(** Number of learnt-database reductions performed. *)

val n_imported : t -> int
(** Clauses adopted through the import hook (portfolio sharing). *)

(** Attribution of propagation work between the clause engine and the
    PB engine.  [n_clause_props] / [n_pb_props] count literals enqueued
    with a clause / PB constraint as their reason, in every propagation
    (search, probes, level-0 simplification).  [n_clause_conflicts] /
    [n_pb_conflicts] split the search conflicts of {!n_conflicts} by
    the kind of constraint that raised them, so the two sum to it. *)

val n_clause_props : t -> int
val n_pb_props : t -> int
val n_clause_conflicts : t -> int
val n_pb_conflicts : t -> int

type lbd_summary = {
  live : int;  (** learnt clauses currently in the database *)
  glue : int;  (** of which glue ([lbd <= 2]) *)
  avg_lbd : float;
  max_lbd : int;
}

val lbd_summary : t -> lbd_summary
(** Summary of the LBD distribution over the live learnt clauses. *)

val n_literals : t -> int
(** Total number of input literal occurrences (clauses after level-0
    simplification plus PB terms) — the "Lit." metric of the paper's
    tables. *)

type solve_stats = {
  d_conflicts : int;
  d_decisions : int;
  d_propagations : int;
  d_restarts : int;
  d_learnt : int;  (** clauses learnt (cumulative delta, incl. later deleted) *)
}
(** Counter deltas attributable to a single [solve] call. *)

val last_solve_stats : t -> solve_stats
(** Deltas of the most recent {!solve} call (all zero before the first
    one).  Unlike the cumulative accessors above, this is overwritten
    by every solve, making per-probe accounting safe under incremental
    reuse. *)
