(* A CDCL SAT solver with native pseudo-Boolean (PB) constraints.

   The clause part follows MiniSat: two-watched literals, first-UIP
   conflict analysis with clause learning, VSIDS branching with phase
   saving, Luby restarts and activity-based learnt-clause deletion.

   Storage is flat and pointer-free, so propagation chases no boxes and
   pays no write barriers:
   - Clause arena: every clause lives in one growable [int array], a
     [hdr]-word header (size and learnt/deleted flags, LBD, activity
     slot) followed by its literals.  A clause is named by the offset
     of its header, its [cref].  Learnt activities live in a parallel
     float store indexed by the header's slot.  Deleting a clause only
     sets its flag; once the dead words pass a fifth of the arena it is
     compacted MiniSat-style, relocating every cref in place.
   - Watch lists: per literal [l], the first [wsize.(l)] words of
     [wdata.(l)] hold interleaved [(blocker, cref)] pairs.  Every
     literal starts out sharing one empty array and gets its own only
     on its first push, so creating a variable allocates nothing per
     literal; a push allocates only when a list outgrows its array.  A
     satisfied blocker keeps the watch without touching the arena.
   - Reasons: one [int array] of codes, [none], a cref (>= 0) or an
     encoded PB index (<= -2).
   - PB constraints [sum a_i * l_i >= b] (a_i > 0) are propagated with
     the counter method: each keeps its slack
     [sum over non-false l_i of a_i - b] in a flat [int array], updated
     eagerly on assignment and unassignment through per-literal
     [(pb index, coeff)] watch pairs, stored like the clause watches in
     [pb_wdata]/[pb_wsize].  Whether a literal occurs in any PB is one
     load from [pb_wsize].  A constraint is conflicting when slack < 0
     and propagates every unassigned literal whose coefficient exceeds
     the slack.

   Conflict analysis sees PB constraints through clausal explanations
   (the propagated literal together with the literals of the
   constraint that were false at propagation time), which keeps the
   learning machinery purely clausal and sound.  This mirrors the
   GOBLIN-style PB engine the paper relies on. *)

type pb = {
  coeffs : int array; (* positive, parallel to [plits] *)
  plits : int array;
  degree : int; (* b in sum a_i l_i >= b *)
}

type result = Sat | Unsat | Unknown

(* DRUP-style proof events.  [Step_rup] clauses are claimed derivable by
   reverse unit propagation from the input CNF plus all earlier steps;
   [Step_pb] clauses are claimed implied by a single input PB constraint
   (under the unit-propagation closure of the clause database), which is
   how clausal explanations of PB propagations enter the trace.  An
   empty [Step_rup] is the final refutation. *)
type proof_step =
  | Step_rup of int array
  | Step_pb of int array
  | Step_delete of int array

let dummy_pb = { coeffs = [||]; plits = [||]; degree = 0 }

(* Reason codes: [none], a clause's cref, or [pb_reason i] for the
   PB constraint of index [i]. *)
let none = -1
let pb_reason i = -2 - i
let pb_of_reason r = -2 - r

(* Clause header words: size lsl 2 with the flag bits below, the LBD
   (0 for problem clauses), and the activity slot of a learnt clause. *)
let hdr = 3
let learnt_bit = 1
let deleted_bit = 2

(* Per-literal lists of int pairs, [(blocker, cref)] clause watches or
   [(pb index, coeff)] PB watches: list [l] is the first [size.(l)]
   words of [data.(l)].  Lists that never received a push share
   [no_pairs]. *)
let no_pairs : int array = [||]

let push_pair data size l a b =
  let n = size.(l) in
  let d = data.(l) in
  let d =
    if n + 2 <= Array.length d then d
    else begin
      let d' = Array.make (max 4 (2 * Array.length d)) 0 in
      Array.blit d 0 d' 0 n;
      data.(l) <- d';
      d'
    end
  in
  Array.unsafe_set d n a;
  Array.unsafe_set d (n + 1) b;
  size.(l) <- n + 2

(* Diversification knobs.  [default_config] reproduces the historical
   hard-wired behavior exactly, so applying it is observationally a
   no-op — portfolio workers rely on this for jobs=1 determinism. *)
type config = {
  seed : int;
  random_freq : float; (* probability of a random branching decision *)
  var_decay : float; (* VSIDS activity decay, e.g. 0.95 *)
  clause_decay : float;
  restart_first : int; (* Luby restart unit, in conflicts *)
  init_polarity : bool; (* phase-saving default for unassigned vars *)
}

let default_config =
  {
    seed = 0;
    random_freq = 0.;
    var_decay = 0.95;
    clause_decay = 0.999;
    restart_first = 100;
    init_polarity = false;
  }

(* counter deltas of the most recent [solve] call; cumulative counters
   persist across incremental solves, these do not (see mli) *)
type solve_stats = {
  d_conflicts : int;
  d_decisions : int;
  d_propagations : int;
  d_restarts : int;
  d_learnt : int;
}

let empty_solve_stats =
  {
    d_conflicts = 0;
    d_decisions = 0;
    d_propagations = 0;
    d_restarts = 0;
    d_learnt = 0;
  }

type t = {
  mutable ok : bool;
  mutable nvars : int;
  (* inprocessing state: [frozen] vars are exempt from elimination
     (assumption/selector/interface literals); [eliminated] vars have
     been resolved away by BVE and live on only in [elim_stack], newest
     first, as (var, original clauses containing it).  [graveyard]
     retains problem clauses removed by subsumption/vivification so
     that [fold_clauses] (used to hand a checker the formula a trace
     was logged against) stays a superset of every clause the trace
     ever referenced. *)
  mutable frozen : bool array;
  mutable eliminated : bool array;
  mutable n_elim : int;
  mutable elim_stack : (int * int array list) list;
  mutable graveyard : int array list;
  mutable probe_logging : bool;
      (* log PB explanations for propagations above level 0 too —
         set during vivification/lookahead probes so clauses derived
         from probe conflicts stay RUP-checkable *)
  mutable inprocess : (t -> unit) option;
  mutable viv_cursor : int; (* round-robin position of vivification *)
  (* inprocessing statistics, cumulative *)
  mutable n_vivified : int;
  mutable n_strengthened : int;
  mutable n_subsumed : int;
  mutable n_elim_resolvents : int;
  (* per-variable state, grown on demand *)
  mutable assigns : int array; (* 0 unassigned, 1 true, -1 false *)
  mutable level : int array;
  mutable reason : int array; (* reason codes, see [none] *)
  mutable trail_pos : int array;
  mutable polarity : bool array; (* saved phase: last assigned sign *)
  mutable seen : bool array;
  activity : float array ref;
  order : Order_heap.t;
  (* per-literal watch lists (see [push_pair]) *)
  mutable wdata : int array array; (* clause watches *)
  mutable wsize : int array;
  mutable pb_wdata : int array array; (* PB watches *)
  mutable pb_wsize : int array;
  (* clause arena (see the header comment) *)
  mutable arena : int array;
  mutable arena_top : int; (* first free word *)
  mutable wasted : int; (* words held by deleted clauses *)
  mutable cla_act : float array; (* learnt activities, by header slot *)
  mutable n_act : int; (* slots in use *)
  (* constraint database *)
  clauses : Veci.t; (* crefs of the problem clauses *)
  learnts : Veci.t; (* crefs of the learnt clauses *)
  pbs : pb Vec.t;
  mutable pb_slack : int array; (* by PB index *)
  mutable pb_max : int array; (* largest coefficient, by PB index *)
  (* assignment trail *)
  trail : Veci.t;
  trail_lim : Veci.t;
  mutable qhead : int;
  (* heuristics (see [config]) *)
  mutable var_inc : float;
  mutable var_decay : float;
  mutable cla_inc : float;
  mutable cla_decay : float;
  mutable max_learnts : float;
  mutable restart_first : int;
  mutable random_freq : float;
  mutable rng : int; (* xorshift state; only consulted when random_freq > 0 *)
  (* statistics *)
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable restarts : int;
  mutable lit_count : int; (* total input literal occurrences, for reporting *)
  mutable learnt_total : int; (* cumulative learnt clauses, incl. deleted *)
  mutable reduce_dbs : int;
  mutable imported : int; (* clauses accepted through the import hook *)
  (* attribution: literals enqueued by a clause / PB reason, search
     conflicts raised by a clause / PB constraint *)
  mutable clause_props : int;
  mutable pb_props : int;
  mutable clause_conflicts : int;
  mutable pb_conflicts : int;
  mutable last_stats : solve_stats; (* deltas of the latest solve call *)
  (* LBD computation scratch: level stamps, see [compute_lbd] *)
  mutable lbd_stamp : int array;
  mutable lbd_tick : int;
  (* clause-sharing hooks (portfolio layer); [export] observes every
     learnt clause, [import] is polled between restart episodes *)
  mutable export : (int array -> lbd:int -> unit) option;
  mutable import : (unit -> (int array * int) list) option;
  (* model of the last Sat answer *)
  mutable model : bool array;
  (* failed-assumption core of the last Unsat answer; [None] while the
     last answer is anything else (Sat, Unknown, or no solve yet) *)
  mutable core : int array option;
  (* optional proof sink; see [set_proof_sink] *)
  mutable proof : (proof_step -> unit) option;
  (* scratch buffers *)
  explain_buf : Veci.t;
  learnt_buf : Veci.t;
  mutable add_buf : int array; (* sorted literals of [add_clause_core] *)
}

let create () =
  let activity = ref (Array.make 16 0.) in
  {
    ok = true;
    nvars = 0;
    frozen = Array.make 16 false;
    eliminated = Array.make 16 false;
    n_elim = 0;
    elim_stack = [];
    graveyard = [];
    probe_logging = false;
    inprocess = None;
    viv_cursor = 0;
    n_vivified = 0;
    n_strengthened = 0;
    n_subsumed = 0;
    n_elim_resolvents = 0;
    assigns = Array.make 16 0;
    level = Array.make 16 0;
    reason = Array.make 16 none;
    trail_pos = Array.make 16 0;
    polarity = Array.make 16 false;
    seen = Array.make 16 false;
    activity;
    order = Order_heap.create activity;
    wdata = Array.make 32 no_pairs;
    wsize = Array.make 32 0;
    pb_wdata = Array.make 32 no_pairs;
    pb_wsize = Array.make 32 0;
    arena = Array.make 1024 0;
    arena_top = 0;
    wasted = 0;
    cla_act = Array.make 64 0.;
    n_act = 0;
    clauses = Veci.create ();
    learnts = Veci.create ();
    pbs = Vec.create dummy_pb;
    pb_slack = Array.make 16 0;
    pb_max = Array.make 16 0;
    trail = Veci.create ();
    trail_lim = Veci.create ();
    qhead = 0;
    var_inc = 1.0;
    var_decay = 1.0 /. 0.95;
    cla_inc = 1.0;
    cla_decay = 1.0 /. 0.999;
    max_learnts = 0.;
    restart_first = 100;
    random_freq = 0.;
    rng = 0x9e3779b9;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    restarts = 0;
    lit_count = 0;
    learnt_total = 0;
    reduce_dbs = 0;
    imported = 0;
    clause_props = 0;
    pb_props = 0;
    clause_conflicts = 0;
    pb_conflicts = 0;
    last_stats = empty_solve_stats;
    lbd_stamp = Array.make 17 0;
    lbd_tick = 0;
    export = None;
    import = None;
    model = [||];
    core = None;
    proof = None;
    explain_buf = Veci.create ();
    learnt_buf = Veci.create ();
    add_buf = Array.make 16 0;
  }

let n_vars t = t.nvars
let n_clauses t = Veci.size t.clauses
let n_pbs t = Vec.size t.pbs
let n_learnts t = Veci.size t.learnts
let n_conflicts t = t.conflicts
let n_decisions t = t.decisions
let n_propagations t = t.propagations
let n_restarts t = t.restarts
let n_literals t = t.lit_count
let n_learnt_total t = t.learnt_total
let n_reduce_dbs t = t.reduce_dbs
let n_imported t = t.imported
let n_clause_props t = t.clause_props
let n_pb_props t = t.pb_props
let n_clause_conflicts t = t.clause_conflicts
let n_pb_conflicts t = t.pb_conflicts
let ok t = t.ok

(* -- clause arena ------------------------------------------------------- *)

let c_size t c = t.arena.(c) lsr 2
let c_learnt t c = t.arena.(c) land learnt_bit <> 0
let c_deleted t c = t.arena.(c) land deleted_bit <> 0
let c_lbd t c = t.arena.(c + 1)
let c_lit t c i = t.arena.(c + hdr + i)
let c_lits t c = Array.sub t.arena (c + hdr) (c_size t c)
let c_activity t c = t.cla_act.(t.arena.(c + 2))

let c_exists t c p =
  let a = t.arena and base = c + hdr in
  let rec go i = i >= 0 && (p a.(base + i) || go (i - 1)) in
  go (c_size t c - 1)

let c_mem t c l = c_exists t c (fun x -> x = l)

(* Store a clause and return its cref.  Learnt clauses get a fresh
   activity slot, initialised to 0. *)
let alloc_clause t (lits : int array) ~learnt ~lbd =
  let n = Array.length lits in
  let c = t.arena_top in
  if c + hdr + n > Array.length t.arena then begin
    let a = Array.make (max (c + hdr + n) (2 * Array.length t.arena)) 0 in
    Array.blit t.arena 0 a 0 c;
    t.arena <- a
  end;
  let slot =
    if not learnt then 0
    else begin
      if t.n_act = Array.length t.cla_act then begin
        let f = Array.make (2 * t.n_act) 0. in
        Array.blit t.cla_act 0 f 0 t.n_act;
        t.cla_act <- f
      end;
      t.cla_act.(t.n_act) <- 0.;
      t.n_act <- t.n_act + 1;
      t.n_act - 1
    end
  in
  let a = t.arena in
  a.(c) <- (n lsl 2) lor (if learnt then learnt_bit else 0);
  a.(c + 1) <- lbd;
  a.(c + 2) <- slot;
  Array.blit lits 0 a (c + hdr) n;
  t.arena_top <- c + hdr + n;
  c

let delete_clause t c =
  t.arena.(c) <- t.arena.(c) lor deleted_bit;
  t.wasted <- t.wasted + hdr + c_size t c

(* Summary of the LBD distribution over the live learnt clauses. *)
type lbd_summary = { live : int; glue : int; avg_lbd : float; max_lbd : int }

let lbd_summary t =
  let n = ref 0 and glue = ref 0 and sum = ref 0 and mx = ref 0 in
  Veci.iter
    (fun c ->
      if not (c_deleted t c) then begin
        let lbd = c_lbd t c in
        incr n;
        sum := !sum + lbd;
        if lbd <= 2 then incr glue;
        if lbd > !mx then mx := lbd
      end)
    t.learnts;
  {
    live = !n;
    glue = !glue;
    avg_lbd = (if !n = 0 then 0. else float_of_int !sum /. float_of_int !n);
    max_lbd = !mx;
  }

(* -- diversification -------------------------------------------------- *)

(* Mix the seed so that nearby seeds yield unrelated streams; keep the
   state positive and nonzero (xorshift has a fixed point at 0). *)
let seed_state seed =
  let h = (seed * 0x9e3779b9) lxor (seed lsr 16) lxor 0x2545f491 in
  let h = h land max_int in
  if h = 0 then 0x9e3779b9 else h

let set_seed t seed = t.rng <- seed_state seed

let rng_next t =
  let x = t.rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  let x = x land max_int in
  t.rng <- (if x = 0 then 0x9e3779b9 else x);
  t.rng

let rng_float t = float_of_int (rng_next t) /. float_of_int max_int

let set_config t (c : config) =
  set_seed t c.seed;
  t.random_freq <- c.random_freq;
  t.var_decay <- 1.0 /. c.var_decay;
  t.cla_decay <- 1.0 /. c.clause_decay;
  t.restart_first <- max 1 c.restart_first;
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) = 0 then t.polarity.(v) <- c.init_polarity
  done

let set_export_hook t hook = t.export <- hook
let set_import_hook t hook = t.import <- hook

let grow_arrays t cap =
  let old = Array.length t.assigns in
  if cap > old then begin
    let n = max cap (2 * old) in
    let copy len a fill =
      let b = Array.make len fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.assigns <- copy n t.assigns 0;
    t.level <- copy n t.level 0;
    t.reason <- copy n t.reason none;
    t.trail_pos <- copy n t.trail_pos 0;
    t.polarity <- copy n t.polarity false;
    t.seen <- copy n t.seen false;
    t.frozen <- copy n t.frozen false;
    t.eliminated <- copy n t.eliminated false;
    t.activity := copy n !(t.activity) 0.;
    (* decision levels range over [0, nvars], hence the +1 *)
    t.lbd_stamp <- Array.make (n + 1) 0;
    t.lbd_tick <- 0;
    (* two literals per variable *)
    t.wdata <- copy (2 * n) t.wdata no_pairs;
    t.wsize <- copy (2 * n) t.wsize 0;
    t.pb_wdata <- copy (2 * n) t.pb_wdata no_pairs;
    t.pb_wsize <- copy (2 * n) t.pb_wsize 0
  end

let new_var t =
  let v = t.nvars in
  t.nvars <- v + 1;
  grow_arrays t t.nvars;
  Order_heap.insert t.order v;
  v

let new_vars t n = List.init n (fun _ -> new_var t)

let decision_level t = Veci.size t.trail_lim

let value_lit t l =
  let a = Array.unsafe_get t.assigns (l lsr 1) in
  if l land 1 = 0 then a else -a

(* -- proof logging --------------------------------------------------- *)

let set_proof_sink t sink = t.proof <- sink
let proof_on t = t.proof <> None

let log_step t step =
  match t.proof with None -> () | Some sink -> sink step

(* Clausal consequence of PB [i] given the literals of it currently
   false: falsifying [extra] (when >= 0) and those literals leaves the
   maximum achievable sum below the degree. *)
let log_pb_clause t i extra =
  match t.proof with
  | None -> ()
  | Some sink ->
    let pb = Vec.get t.pbs i in
    let buf = ref (if extra >= 0 then [ extra ] else []) in
    let n = Array.length pb.plits in
    for i = n - 1 downto 0 do
      let q = pb.plits.(i) in
      if q <> extra && value_lit t q = -1 then buf := q :: !buf
    done;
    sink (Step_pb (Array.of_list !buf))

(* Log the clausal form of a PB conflict reason; clause reasons are
   already in the trace. *)
let log_pb_conflict t r = if r <= -2 then log_pb_clause t (pb_of_reason r) (-1)

(* The instance has been refuted: log the clausal form of a PB conflict
   reason (when there is one) and then the empty clause. *)
let log_refutation t r =
  if proof_on t then begin
    log_pb_conflict t r;
    log_step t (Step_rup [||])
  end

(* -- VSIDS ---------------------------------------------------------- *)

let var_rescale t =
  let act = !(t.activity) in
  for v = 0 to t.nvars - 1 do
    act.(v) <- act.(v) *. 1e-100
  done;
  t.var_inc <- t.var_inc *. 1e-100

let var_bump t v =
  let act = !(t.activity) in
  act.(v) <- act.(v) +. t.var_inc;
  if act.(v) > 1e100 then var_rescale t;
  Order_heap.decrease t.order v

let var_decay_activity t = t.var_inc <- t.var_inc *. t.var_decay

let cla_bump t c =
  let slot = t.arena.(c + 2) in
  let act = t.cla_act.(slot) +. t.cla_inc in
  t.cla_act.(slot) <- act;
  if act > 1e20 then begin
    Veci.iter
      (fun c ->
        let slot = t.arena.(c + 2) in
        t.cla_act.(slot) <- t.cla_act.(slot) *. 1e-20)
      t.learnts;
    t.cla_inc <- t.cla_inc *. 1e-20
  end

let cla_decay_activity t = t.cla_inc <- t.cla_inc *. t.cla_decay

(* -- assignment ------------------------------------------------------ *)

(* Precondition: [l] is unassigned.  Records the assignment and eagerly
   updates the slack of every PB constraint containing the literal that
   just became false. *)
let enqueue t l r =
  let v = l lsr 1 in
  assert (t.assigns.(v) = 0);
  t.assigns.(v) <- (if l land 1 = 0 then 1 else -1);
  t.level.(v) <- decision_level t;
  t.reason.(v) <- r;
  t.trail_pos.(v) <- Veci.size t.trail;
  t.polarity.(v) <- l land 1 = 0;
  Veci.push t.trail l;
  let n = t.pb_wsize.(l lxor 1) in
  if n > 0 then begin
    let d = t.pb_wdata.(l lxor 1) and slack = t.pb_slack in
    let k = ref 0 in
    while !k < n do
      let i = Array.unsafe_get d !k in
      slack.(i) <- slack.(i) - Array.unsafe_get d (!k + 1);
      k := !k + 2
    done
  end

let cancel_until t lvl =
  if decision_level t > lvl then begin
    let bound = Veci.get t.trail_lim lvl in
    let slack = t.pb_slack in
    for c = Veci.size t.trail - 1 downto bound do
      let l = Veci.get t.trail c in
      let v = l lsr 1 in
      t.assigns.(v) <- 0;
      t.reason.(v) <- none;
      if not (Order_heap.in_heap t.order v) then Order_heap.insert t.order v;
      let n = t.pb_wsize.(l lxor 1) in
      if n > 0 then begin
        let d = t.pb_wdata.(l lxor 1) in
        let k = ref 0 in
        while !k < n do
          let i = Array.unsafe_get d !k in
          slack.(i) <- slack.(i) + Array.unsafe_get d (!k + 1);
          k := !k + 2
        done
      end
    done;
    Veci.shrink t.trail bound;
    Veci.shrink t.trail_lim lvl;
    t.qhead <- bound
  end

let new_decision_level t = Veci.push t.trail_lim (Veci.size t.trail)

(* -- propagation ----------------------------------------------------- *)

(* Scan PB constraint [i] after one of its literals was falsified:
   enqueue the literals it forces and return [none], or return its
   reason code when it is conflicting. *)
let pb_check t i =
  let slack = t.pb_slack.(i) in
  if slack < 0 then pb_reason i
  else begin
    if slack < t.pb_max.(i) then begin
      let pb = Vec.get t.pbs i in
      let n = Array.length pb.plits in
      for k = 0 to n - 1 do
        let q = pb.plits.(k) in
        if pb.coeffs.(k) > t.pb_slack.(i) && value_lit t q = 0 then begin
          (* level-0 PB propagations are invisible to conflict analysis
             (it skips level-0 literals), so a checker replaying the trace
             could never derive them: log their explanation here.  The
             same applies to PB propagations during inprocessing probes
             ([probe_logging]): the clause derived from the probe is RUP
             only if every PB inference along the way has a clausal
             counterpart in the trace. *)
          if proof_on t && (decision_level t = 0 || t.probe_logging) then
            log_pb_clause t i q;
          t.pb_props <- t.pb_props + 1;
          enqueue t q (pb_reason i)
        end
      done
    end;
    none
  end

(* Propagate the trail to fixpoint; returns the reason code of a
   conflicting constraint, or [none]. *)
let propagate t =
  let confl = ref none in
  while !confl = none && t.qhead < Veci.size t.trail do
    let p = Veci.get t.trail t.qhead in
    t.qhead <- t.qhead + 1;
    t.propagations <- t.propagations + 1;
    (* clause watches: clauses in the list of [p] have a watched literal
       equal to [np], which is now false.  A watch moves only to the
       list of a different literal, so [wd] stays the list's array. *)
    let np = p lxor 1 in
    let wd = t.wdata.(p) and n = t.wsize.(p) in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let blocker = Array.unsafe_get wd !i and c = Array.unsafe_get wd (!i + 1) in
      i := !i + 2;
      if value_lit t blocker = 1 then begin
        (* satisfied through the blocking literal: keep as-is without
           touching the arena *)
        Array.unsafe_set wd !j blocker;
        Array.unsafe_set wd (!j + 1) c;
        j := !j + 2
      end
      else begin
        let a = t.arena in
        let l0 = c + hdr in
        if a.(l0) = np then begin
          a.(l0) <- a.(l0 + 1);
          a.(l0 + 1) <- np
        end;
        let first = a.(l0) in
        if first <> blocker && value_lit t first = 1 then begin
          Array.unsafe_set wd !j first;
          Array.unsafe_set wd (!j + 1) c;
          j := !j + 2
        end
        else begin
          (* look for a non-false replacement watch *)
          let size = a.(c) lsr 2 in
          let k = ref 2 in
          while !k < size && value_lit t a.(l0 + !k) = -1 do incr k done;
          if !k < size then begin
            let l = a.(l0 + !k) in
            a.(l0 + 1) <- l;
            a.(l0 + !k) <- np;
            push_pair t.wdata t.wsize (l lxor 1) first c
          end
          else begin
            Array.unsafe_set wd !j first;
            Array.unsafe_set wd (!j + 1) c;
            j := !j + 2;
            if value_lit t first = -1 then begin
              (* conflict: keep the rest of the list and stop *)
              confl := c;
              while !i < n do
                Array.unsafe_set wd !j (Array.unsafe_get wd !i);
                Array.unsafe_set wd (!j + 1) (Array.unsafe_get wd (!i + 1));
                j := !j + 2;
                i := !i + 2
              done
            end
            else begin
              t.clause_props <- t.clause_props + 1;
              enqueue t first c
            end
          end
        end
      end
    done;
    t.wsize.(p) <- !j;
    (* PB constraints containing [np] lost slack when [p] was enqueued;
       check them now *)
    if !confl = none then begin
      let pd = t.pb_wdata.(np) and pn = t.pb_wsize.(np) in
      let k = ref 0 in
      while !confl = none && !k < pn do
        confl := pb_check t pd.(!k);
        k := !k + 2
      done
    end
  done;
  if !confl <> none then t.qhead <- Veci.size t.trail;
  !confl

(* -- adding constraints ---------------------------------------------- *)

let attach_clause t c =
  let l0 = c_lit t c 0 and l1 = c_lit t c 1 in
  push_pair t.wdata t.wsize (l0 lxor 1) l1 c;
  push_pair t.wdata t.wsize (l1 lxor 1) l0 c

(* Remove the first watch of [c] from the list of [l] by moving the
   list's last pair into its place. *)
let unwatch t l c =
  let d = t.wdata.(l) and n = t.wsize.(l) in
  let rec find k =
    if k < n then
      if d.(k + 1) = c then begin
        t.wsize.(l) <- n - 2;
        d.(k) <- d.(n - 2);
        d.(k + 1) <- d.(n - 1)
      end
      else find (k + 2)
  in
  find 0

let detach_clause t c =
  unwatch t (c_lit t c 0 lxor 1) c;
  unwatch t (c_lit t c 1 lxor 1) c

(* The passes of [add_clause_core] over its input list are top-level
   recursions rather than [List.iter] closures over [ref] cells: the
   encoder adds hundreds of thousands of clauses, and those closures
   were 40% of the minor allocation on perfbench's paper-lazy workload. *)
let rec check_vars t = function
  | [] -> ()
  | l :: rest ->
    assert (l lsr 1 < t.nvars);
    check_vars t rest

(* Insertion-sort the distinct literals of a clause into [t.add_buf],
   whose first [n] words hold those sorted so far, ascending like
   [List.sort_uniq]: the first two become the watches.  Returns the
   count, or -1 when the clause is redundant: a literal is true at
   level 0, or is the complement of one already inserted (which sorts
   next to it). *)
let rec sort_into_buf t n = function
  | [] -> n
  | l :: rest ->
    if value_lit t l = 1 then -1
    else begin
      if n = Array.length t.add_buf then begin
        let b = Array.make (2 * n) 0 in
        Array.blit t.add_buf 0 b 0 n;
        t.add_buf <- b
      end;
      let b = t.add_buf in
      let i = ref n in
      while !i > 0 && b.(!i - 1) > l do decr i done;
      let i = !i in
      if i > 0 && b.(i - 1) = l then sort_into_buf t n rest
      else if (i > 0 && b.(i - 1) = l lxor 1) || (i < n && b.(i) = l lxor 1) then -1
      else begin
        Array.blit b i b (i + 1) (n - i);
        b.(i) <- l;
        sort_into_buf t (n + 1) rest
      end
    end

(* Add a problem clause.  Only legal at decision level 0.  Performs
   level-0 simplification: drops false literals, ignores satisfied and
   tautological clauses, detects immediate conflicts.  [add_clause_core]
   additionally returns the installed clause (when one was), which the
   inprocessing passes use to maintain occurrence lists.

   Adding a clause over a BVE-eliminated variable first reintroduces
   the variable: its stashed original clauses rejoin the database (they
   were never logged as deleted, so the proof trace needs no event) and
   the variable becomes frozen — once the outside world has named a
   variable again it must keep its input meaning. *)
let rec reintroduce_var t v =
  if t.eliminated.(v) then begin
    t.eliminated.(v) <- false;
    t.n_elim <- t.n_elim - 1;
    t.frozen.(v) <- true;
    let stash =
      match List.assoc_opt v t.elim_stack with Some s -> s | None -> []
    in
    t.elim_stack <- List.filter (fun (w, _) -> w <> v) t.elim_stack;
    if not (Order_heap.in_heap t.order v) then Order_heap.insert t.order v;
    List.iter
      (fun lits -> ignore (add_clause_core t (Array.to_list lits)))
      stash
  end

and reintroduce_lits t = function
  | [] -> ()
  | l :: rest ->
    reintroduce_var t (l lsr 1);
    reintroduce_lits t rest

and add_clause_core t lits =
  assert (decision_level t = 0);
  if not t.ok then None
  else begin
    check_vars t lits;
    reintroduce_lits t lits;
    let n = sort_into_buf t 0 lits in
    if n < 0 then None
    else begin
      (* drop the literals false at level 0, in place *)
      let b = t.add_buf in
      let m = ref 0 in
      for k = 0 to n - 1 do
        if value_lit t b.(k) <> -1 then begin
          b.(!m) <- b.(k);
          incr m
        end
      done;
      t.lit_count <- t.lit_count + !m;
      match !m with
      | 0 ->
        t.ok <- false;
        log_step t (Step_rup [||]);
        None
      | 1 ->
        enqueue t b.(0) none;
        let r = propagate t in
        if r <> none then begin
          t.ok <- false;
          log_refutation t r
        end;
        None
      | m ->
        let c = alloc_clause t (Array.sub b 0 m) ~learnt:false ~lbd:0 in
        Veci.push t.clauses c;
        attach_clause t c;
        Some c
    end
  end

let add_clause t lits = ignore (add_clause_core t lits)

(* Add [sum coeffs_i * lits_i >= degree] with all [coeffs_i > 0], over
   distinct variables.  Callers normalize via {!Pb}; here we only handle
   literals already assigned at level 0 and initial propagation. *)
let add_pb_geq t pairs degree =
  assert (decision_level t = 0);
  if t.ok then begin
    List.iter
      (fun (a, l) ->
        assert (a > 0);
        assert (l lsr 1 < t.nvars))
      pairs;
    List.iter (fun (_, l) -> reintroduce_var t (l lsr 1)) pairs;
    (* level-0 true literals count into the degree, false ones drop *)
    let degree = ref degree and n = ref 0 and total = ref 0 in
    List.iter
      (fun (a, l) ->
        match value_lit t l with
        | 1 -> degree := !degree - a
        | -1 -> ()
        | _ ->
          incr n;
          total := !total + a)
      pairs;
    let degree = !degree in
    if degree > 0 then begin
      if !total < degree then begin
        t.ok <- false;
        (* the constraint is unsatisfiable on its own once level-0
           units are accounted for: the empty clause is PB-implied *)
        log_step t (Step_pb [||])
      end
      else begin
        (* saturation: no coefficient needs to exceed the degree *)
        let coeffs = Array.make !n 0 and plits = Array.make !n 0 in
        let k = ref 0 and sum = ref 0 and mx = ref 0 in
        List.iter
          (fun (a, l) ->
            if value_lit t l = 0 then begin
              let a = min a degree in
              coeffs.(!k) <- a;
              plits.(!k) <- l;
              incr k;
              sum := !sum + a;
              mx := max !mx a
            end)
          pairs;
        t.lit_count <- t.lit_count + !n;
        let i = Vec.size t.pbs in
        Vec.push t.pbs { coeffs; plits; degree };
        if i = Array.length t.pb_slack then begin
          let grow a = Array.init (2 * i) (fun k -> if k < i then a.(k) else 0) in
          t.pb_slack <- grow t.pb_slack;
          t.pb_max <- grow t.pb_max
        end;
        t.pb_slack.(i) <- !sum - degree;
        t.pb_max.(i) <- !mx;
        Array.iteri (fun k l -> push_pair t.pb_wdata t.pb_wsize l i coeffs.(k)) plits;
        let r = pb_check t i in
        let r = if r = none then propagate t else r in
        if r <> none then begin
          t.ok <- false;
          log_refutation t r
        end
      end
    end
  end

(* -- conflict analysis ------------------------------------------------ *)

(* Write into [buf] the clausal explanation of reason [r]: the literals
   (all currently false) whose conjunction of negations implies [p] (or
   the conflict when [p < 0]).  For PB reasons only literals falsified
   before [p] participate. *)
let explain t buf r p =
  Veci.clear buf;
  if r >= 0 then begin
    let a = t.arena and base = r + hdr in
    for i = 0 to c_size t r - 1 do
      let q = a.(base + i) in
      if q <> p then Veci.push buf q
    done
  end
  else begin
    assert (r <> none);
    let pb = Vec.get t.pbs (pb_of_reason r) in
    let cutoff = if p >= 0 then t.trail_pos.(p lsr 1) else max_int in
    let n = Array.length pb.plits in
    for i = 0 to n - 1 do
      let q = pb.plits.(i) in
      if q <> p && value_lit t q = -1 && t.trail_pos.(q lsr 1) < cutoff then
        Veci.push buf q
    done;
    (* the clausal explanation is a lemma a DRUP checker cannot infer
       from the CNF: log it as a PB-implied addition so learnt clauses
       resolved against it stay RUP-checkable *)
    match t.proof with
    | None -> ()
    | Some sink ->
      let lits = Array.make (Veci.size buf + if p >= 0 then 1 else 0) 0 in
      let k = ref 0 in
      if p >= 0 then begin
        lits.(0) <- p;
        k := 1
      end;
      Veci.iter
        (fun q ->
          lits.(!k) <- q;
          incr k)
        buf;
      sink (Step_pb lits)
  end

(* Is learnt literal [q] redundant, i.e. implied by the rest of the
   learnt clause?  One-step check: every literal of [q]'s reason is
   already seen or assigned at level 0. *)
let lit_redundant t q =
  let v = q lsr 1 in
  let r = t.reason.(v) in
  if r = none then false
  else begin
    explain t t.explain_buf r (q lxor 1);
    let ok = ref true in
    Veci.iter
      (fun x ->
        let xv = x lsr 1 in
        if not t.seen.(xv) && t.level.(xv) > 0 then ok := false)
      t.explain_buf;
    !ok
  end

(* -- final-conflict analysis (failed assumptions) --------------------- *)

(* MiniSat's analyzeFinal: compute the subset of the installed
   assumptions responsible for an Unsat-under-assumptions answer.
   [seed] is either the conflicting constraint or a single assumption
   literal that arrived already false.  Seed literals assigned above
   level 0 are marked, then the trail is walked top-down: a marked
   pseudo-decision (reason [none]) is an assumption and enters the
   core; a marked propagated literal is replaced by its reason's
   literals.  Only called when the conflict is confined to assumption
   levels, so every decision encountered is an assumption.  The proof
   sink is muted for the walk: reason explanations replayed here are
   inspection, not derivation, and must not emit lemmas. *)
let analyze_final t seed =
  let saved_proof = t.proof in
  t.proof <- None;
  let core = ref [] in
  let mark q =
    let v = q lsr 1 in
    if (not t.seen.(v)) && t.level.(v) > 0 then t.seen.(v) <- true
  in
  (match seed with
  | `Conflict r ->
    explain t t.explain_buf r (-1);
    Veci.iter mark t.explain_buf
  | `False_lit p -> mark p);
  if Veci.size t.trail_lim > 0 then begin
    let bound = Veci.get t.trail_lim 0 in
    for i = Veci.size t.trail - 1 downto bound do
      let l = Veci.get t.trail i in
      let v = l lsr 1 in
      if t.seen.(v) then begin
        t.seen.(v) <- false;
        let r = t.reason.(v) in
        if r = none then core := l :: !core
        else begin
          explain t t.explain_buf r l;
          Veci.iter mark t.explain_buf
        end
      end
    done
  end;
  t.proof <- saved_proof;
  !core

(* Literal block distance: the number of distinct non-zero decision
   levels among [lits].  Computed with a stamp array so repeated calls
   stay allocation-free. *)
let compute_lbd t lits =
  t.lbd_tick <- t.lbd_tick + 1;
  let tick = t.lbd_tick in
  let n = ref 0 in
  Veci.iter
    (fun q ->
      let lv = t.level.(q lsr 1) in
      if lv > 0 && t.lbd_stamp.(lv) <> tick then begin
        t.lbd_stamp.(lv) <- tick;
        incr n
      end)
    lits;
  !n

(* First-UIP conflict analysis.  Returns the learnt clause (UIP literal
   first), the backtrack level and the clause's LBD. *)
let analyze t confl =
  let learnt = t.learnt_buf in
  Veci.clear learnt;
  Veci.push learnt 0 (* placeholder for the asserting literal *);
  let path_c = ref 0 in
  let p = ref (-1) in
  let confl = ref confl in
  let index = ref (Veci.size t.trail - 1) in
  let continue = ref true in
  while !continue do
    if !confl >= 0 && c_learnt t !confl then cla_bump t !confl;
    explain t t.explain_buf !confl !p;
    Veci.iter
      (fun q ->
        let v = q lsr 1 in
        if (not t.seen.(v)) && t.level.(v) > 0 then begin
          t.seen.(v) <- true;
          var_bump t v;
          if t.level.(v) >= decision_level t then incr path_c
          else Veci.push learnt q
        end)
      t.explain_buf;
    (* pick the next literal to resolve on *)
    while not t.seen.(Veci.get t.trail !index lsr 1) do decr index done;
    p := Veci.get t.trail !index;
    decr index;
    let v = !p lsr 1 in
    t.seen.(v) <- false;
    decr path_c;
    if !path_c > 0 then confl := t.reason.(v) else continue := false
  done;
  Veci.set learnt 0 (!p lxor 1);
  (* clause minimization: drop redundant literals *)
  let kept = Veci.create ~capacity:(Veci.size learnt) () in
  Veci.push kept (Veci.get learnt 0);
  for i = 1 to Veci.size learnt - 1 do
    let q = Veci.get learnt i in
    if not (lit_redundant t q) then Veci.push kept q
  done;
  (* compute backtrack level and place a literal of that level second *)
  let bt =
    if Veci.size kept <= 1 then 0
    else begin
      let max_i = ref 1 in
      for i = 2 to Veci.size kept - 1 do
        if t.level.(Veci.get kept i lsr 1) > t.level.(Veci.get kept !max_i lsr 1) then
          max_i := i
      done;
      let tmp = Veci.get kept 1 in
      Veci.set kept 1 (Veci.get kept !max_i);
      Veci.set kept !max_i tmp;
      t.level.(Veci.get kept 1 lsr 1)
    end
  in
  (* clear seen flags *)
  Veci.iter (fun q -> t.seen.(q lsr 1) <- false) learnt;
  let lbd = compute_lbd t kept in
  (Veci.to_array kept, bt, lbd)

let record_learnt t lits lbd =
  t.learnt_total <- t.learnt_total + 1;
  log_step t (Step_rup (Array.copy lits));
  (match t.export with
  | None -> ()
  | Some f -> f lits ~lbd (* the hook must copy if it retains [lits] *));
  if Array.length lits = 1 then enqueue t lits.(0) none
  else begin
    let c = alloc_clause t lits ~learnt:true ~lbd in
    Veci.push t.learnts c;
    attach_clause t c;
    cla_bump t c;
    enqueue t lits.(0) c
  end

(* -- arena compaction --------------------------------------------------- *)

(* Copy the live clauses into a fresh arena, problem clauses first, and
   relocate every cref in place: watch lists keep their order, so the
   search is unaffected.  The old header's LBD word is overwritten with
   the forwarding cref.  Learnt activity slots are renumbered densely in
   database order. *)
let compact t =
  let old = t.arena in
  let live = t.arena_top - t.wasted in
  let a = Array.make (max 1024 (live + (live / 2))) 0 in
  let act = Array.make (max 64 (Veci.size t.learnts)) 0. in
  let top = ref 0 and n_act = ref 0 in
  let move vec =
    for k = 0 to Veci.size vec - 1 do
      let c = Veci.get vec k in
      let words = hdr + (old.(c) lsr 2) in
      Array.blit old c a !top words;
      if old.(c) land learnt_bit <> 0 then begin
        act.(!n_act) <- t.cla_act.(old.(c + 2));
        a.(!top + 2) <- !n_act;
        incr n_act
      end;
      old.(c + 1) <- !top;
      Veci.set vec k !top;
      top := !top + words
    done
  in
  move t.clauses;
  move t.learnts;
  for l = 0 to (2 * t.nvars) - 1 do
    let d = t.wdata.(l) in
    let k = ref 1 in
    while !k < t.wsize.(l) do
      d.(!k) <- old.(d.(!k) + 1);
      k := !k + 2
    done
  done;
  (* reasons name live clauses (a reason is locked against deletion);
     reasons left over from before a clause was retired are dropped *)
  Veci.iter
    (fun l ->
      let v = l lsr 1 in
      let r = t.reason.(v) in
      if r >= 0 then
        t.reason.(v) <- (if old.(r) land deleted_bit <> 0 then none else old.(r + 1)))
    t.trail;
  t.arena <- a;
  t.arena_top <- !top;
  t.wasted <- 0;
  t.cla_act <- act;
  t.n_act <- !n_act

let maybe_compact t = if t.wasted > t.arena_top / 5 then compact t

(* -- learnt clause DB reduction --------------------------------------- *)

let locked t c =
  let l0 = c_lit t c 0 in
  t.reason.(l0 lsr 1) = c && value_lit t l0 = 1

(* Glucose-style reduction: sort worst-first (high LBD, then low
   activity) and delete half, but never glue clauses (lbd <= 2),
   binaries or locked clauses — LBD predicts reuse far better than
   activity alone, so glue stays resident for the whole search. *)
let reduce_db t =
  t.reduce_dbs <- t.reduce_dbs + 1;
  let xs =
    List.sort
      (fun a b ->
        let la = c_lbd t a and lb = c_lbd t b in
        if la <> lb then Int.compare lb la
        else Float.compare (c_activity t a) (c_activity t b))
      (Veci.to_list t.learnts)
  in
  let target = List.length xs / 2 in
  let removed = ref 0 in
  List.iter
    (fun c ->
      if
        !removed < target
        && c_size t c > 2
        && c_lbd t c > 2
        && not (locked t c)
      then begin
        incr removed;
        log_step t (Step_delete (c_lits t c));
        detach_clause t c;
        delete_clause t c
      end)
    xs;
  Veci.filter_in_place (fun c -> not (c_deleted t c)) t.learnts;
  maybe_compact t

(* -- search ------------------------------------------------------------ *)

(* A few random probes for an unassigned variable; -1 on failure.  The
   variable is left in the heap — assigned variables are skipped when
   popped, so a later pop of the same variable is harmless. *)
let random_branch_var t =
  let rec go k =
    if k = 0 || t.nvars = 0 then -1
    else
      let v = rng_next t mod t.nvars in
      if t.assigns.(v) = 0 && not t.eliminated.(v) then v else go (k - 1)
  in
  go 4

let pick_branch_var t =
  let rv =
    if t.random_freq > 0. && rng_float t < t.random_freq then
      random_branch_var t
    else -1
  in
  if rv >= 0 then rv
  else
    let rec go () =
      if Order_heap.is_empty t.order then -1
      else
        let v = Order_heap.remove_max t.order in
        (* eliminated variables stay out of the search: they are
           unassigned by construction and get values from the model
           extension instead *)
        if t.assigns.(v) = 0 && not t.eliminated.(v) then v else go ()
    in
    go ()

exception Found of result

(* One restart-bounded search episode.  [assumptions] are re-installed as
   pseudo-decisions after every restart.  [checkpoint] is polled every
   [check_every] conflicts; when it reports exhaustion the episode backs
   off to level 0 and answers [Unknown], leaving the solver state (and
   all learnt clauses) intact for a later resume. *)
let search t assumptions nof_conflicts ~check_every ~checkpoint =
  let conflict_count = ref 0 in
  let since_check = ref 0 in
  let result = ref Unknown in
  (try
     while true do
       let confl = propagate t in
       if confl <> none then begin
         t.conflicts <- t.conflicts + 1;
         if confl >= 0 then t.clause_conflicts <- t.clause_conflicts + 1
         else t.pb_conflicts <- t.pb_conflicts + 1;
         incr conflict_count;
         if decision_level t = 0 then begin
           t.ok <- false;
           log_refutation t confl;
           raise (Found Unsat)
         end;
         if decision_level t <= Array.length assumptions then begin
           (* conflict under assumptions only: record which failed *)
           t.core <- Some (Array.of_list (analyze_final t (`Conflict confl)));
           raise (Found Unsat)
         end;
         let learnt, bt, lbd = analyze t confl in
         let bt = max bt (min (decision_level t - 1) (Array.length assumptions)) in
         cancel_until t bt;
         record_learnt t learnt lbd;
         var_decay_activity t;
         cla_decay_activity t;
         incr since_check;
         if !since_check >= check_every then begin
           since_check := 0;
           if checkpoint () then begin
             cancel_until t 0;
             raise (Found Unknown)
           end
         end
       end
       else begin
         if !conflict_count >= nof_conflicts then begin
           cancel_until t 0;
           raise (Found Unknown)
         end;
         if
           float_of_int (Veci.size t.learnts) >= t.max_learnts
           && decision_level t > 0
         then reduce_db t;
         (* install pending assumptions as decisions *)
         if decision_level t < Array.length assumptions then begin
           let p = assumptions.(decision_level t) in
           match value_lit t p with
           | 1 -> new_decision_level t (* already satisfied: dummy level *)
           | -1 ->
             (* the assumption is already falsified: the core is [p]
                plus whichever earlier assumptions forced [not p] *)
             t.core <- Some (Array.of_list (p :: analyze_final t (`False_lit p)));
             raise (Found Unsat)
           | _ ->
             new_decision_level t;
             enqueue t p none
         end
         else begin
           let v = pick_branch_var t in
           if v < 0 then raise (Found Sat)
           else begin
             t.decisions <- t.decisions + 1;
             new_decision_level t;
             enqueue t (Lit.of_var ~sign:t.polarity.(v) v) none
           end
         end
       end
     done
   with Found r -> result := r);
  !result

(* -- clause import (portfolio sharing) --------------------------------- *)

(* Install a clause learnt elsewhere on the same instance.  Must be
   called at decision level 0.  The clause is entailed by the shared
   instance, so simplifying against level-0 values is sound. *)
let import_clause t (lits, lbd) =
  if
    t.ok
    && (not (Array.exists (fun l -> value_lit t l = 1) lits))
    (* a clause over a locally-eliminated variable would re-constrain a
       variable BVE already resolved away; dropping it is always sound
       (imports are optional) *)
    && not (Array.exists (fun l -> t.eliminated.(l lsr 1)) lits)
  then begin
    let lits = Array.to_list lits in
    let lits = List.filter (fun l -> value_lit t l <> -1) lits in
    match lits with
    | [] -> t.ok <- false
    | [ l ] ->
      enqueue t l none;
      if propagate t <> none then t.ok <- false
    | _ ->
      let c = alloc_clause t (Array.of_list lits) ~learnt:true ~lbd in
      Veci.push t.learnts c;
      attach_clause t c;
      t.imported <- t.imported + 1
  end

(* Imported clauses are not derivable by RUP from this solver's own
   trace, so a proof-logging solver never imports — the portfolio layer
   enforces the same rule; this guard makes it local too. *)
let do_import t =
  match t.import with
  | Some f when not (proof_on t) -> List.iter (import_clause t) (f ())
  | _ -> ()


(* -- inprocessing ------------------------------------------------------ *)

(* Clause vivification, occurrence-list (self-)subsumption and bounded
   variable elimination, run at decision level 0 between restart
   episodes.  All three are formula transformations independent of any
   assumptions: derived clauses are implied by the problem clauses
   alone, so incremental callers (Opt probes, Explain sessions) stay
   sound.  With a proof sink installed every derived clause is logged
   (Step_rup) before the clause it replaces is dropped (Step_delete);
   BVE deletions are deliberately NOT logged — a DRUP checker keeping
   the originals only gains propagation power, and reintroduction of an
   eliminated variable then needs no trace event. *)

type simp_stats = {
  vivified : int;
  strengthened : int;
  subsumed : int;
  eliminated_vars : int;
  resolvents : int;
}

let simp_stats t =
  {
    vivified = t.n_vivified;
    strengthened = t.n_strengthened;
    subsumed = t.n_subsumed;
    eliminated_vars = t.n_elim;
    resolvents = t.n_elim_resolvents;
  }

let freeze t v =
  if v >= 0 && v < t.nvars then begin
    reintroduce_var t v;
    t.frozen.(v) <- true
  end

let is_frozen t v = v >= 0 && v < t.nvars && t.frozen.(v)
let is_eliminated t v = v >= 0 && v < t.nvars && t.eliminated.(v)
let n_eliminated t = t.n_elim
let set_inprocess_hook t hook = t.inprocess <- hook

(* Is the clause satisfied by the current level-0 assignment? *)
let satisfied0 t c = c_exists t c (fun l -> value_lit t l = 1)

(* Keep the problem clauses that are still live, then reclaim the
   arena if enough of it is dead. *)
let sweep_clauses t =
  Veci.filter_in_place (fun c -> not (c_deleted t c)) t.clauses;
  maybe_compact t

(* Retire a problem clause from the database, keeping its literals
   reachable for [fold_clauses] when a proof is being logged.  The
   caller has already detached it. *)
let retire_problem_clause t ~log c =
  t.lit_count <- t.lit_count - c_size t c;
  if proof_on t then begin
    let lits = c_lits t c in
    if log then log_step t (Step_delete lits);
    t.graveyard <- Array.copy lits :: t.graveyard
  end;
  delete_clause t c

let remove_problem_clause t ~log c =
  detach_clause t c;
  retire_problem_clause t ~log c

(* --- clause vivification --- *)

exception Viv_stop of int list * bool
(* (kept literals so far, shortened?) *)

(* Probe one clause: assume the negation of its literals one by one.
   A conflict, or a literal propagated true, closes the clause early;
   a literal already false drops out.  Either way the surviving
   literal set is implied by the rest of the formula. *)
let vivify_clause t c =
  detach_clause t c;
  let lits = c_lits t c in
  t.probe_logging <- proof_on t;
  new_decision_level t;
  let kept, shortened =
    try
      let kept = ref [] and dropped = ref false in
      Array.iter
        (fun l ->
          match value_lit t l with
          | 1 ->
            (* prefix negation propagated [l]: prefix + l suffices *)
            raise (Viv_stop (l :: !kept, !dropped || l <> lits.(Array.length lits - 1)))
          | -1 -> dropped := true (* redundant literal: drop *)
          | _ ->
            kept := l :: !kept;
            enqueue t (l lxor 1) none;
            let r = propagate t in
            if r <> none then begin
              if proof_on t then log_pb_conflict t r;
              raise (Viv_stop (!kept, !dropped || List.length !kept < Array.length lits))
            end)
        lits;
      (!kept, !dropped)
    with Viv_stop (kept, s) -> (kept, s)
  in
  cancel_until t 0;
  t.probe_logging <- false;
  if not shortened then begin
    attach_clause t c;
    false
  end
  else begin
    let kept = List.rev kept in
    if proof_on t then log_step t (Step_rup (Array.of_list kept));
    (* the original is subsumed by its replacement: deletion is safe *)
    retire_problem_clause t ~log:true c;
    ignore (add_clause_core t kept);
    true
  end

(* Vivify up to [max_probes] literal probes' worth of clauses, round-
   robin across the database so successive passes cover it all.
   Returns the number of clauses shortened. *)
let vivify_pass ?(max_probes = 2000) t =
  if (not t.ok) || decision_level t <> 0 then 0
  else
    let r = propagate t in
    if r <> none then begin
      t.ok <- false;
      log_refutation t r;
      0
    end
    else begin
      let n = Veci.size t.clauses in
      let probes = ref 0 and changed = ref 0 and scanned = ref 0 in
      while !probes < max_probes && !scanned < n && t.ok do
        let i = t.viv_cursor mod max 1 (Veci.size t.clauses) in
        t.viv_cursor <- t.viv_cursor + 1;
        incr scanned;
        if Veci.size t.clauses > 0 then begin
          let c = Veci.get t.clauses i in
          if
            (not (c_deleted t c))
            && (not (satisfied0 t c))
            && not (locked t c)
          then begin
            probes := !probes + c_size t c;
            if vivify_clause t c then begin
              incr changed;
              t.n_vivified <- t.n_vivified + 1
            end
          end
        end
      done;
      sweep_clauses t;
      !changed
    end

(* --- subsumption / self-subsumption --- *)

let clause_sig (lits : int array) =
  Array.fold_left (fun s l -> s lor (1 lsl (l lsr 1 mod 63))) 0 lits

let mem_lit (lits : int array) l = Array.exists (fun x -> x = l) lits

(* Does [c] subsume [d] outright ([`Sub]), or subsume it modulo one
   flipped literal [l] (self-subsumption: resolving on [l] strengthens
   [d] to [d \ {neg l}])? *)
let subsume_test t c d =
  let flip = ref (-1) and ok = ref true in
  for i = 0 to c_size t c - 1 do
    let l = c_lit t c i in
    if !ok && not (c_mem t d l) then
      if !flip < 0 && c_mem t d (l lxor 1) then flip := l else ok := false
  done;
  if not !ok then `No else if !flip < 0 then `Sub else `Self !flip

let subsume_pass ?(max_checks = 200_000) t =
  if (not t.ok) || decision_level t <> 0 then 0
  else begin
    let changed = ref 0 and checks = ref 0 in
    let occ = Array.make (max 1 t.nvars) [] in
    let vsig = Hashtbl.create 64 in
    let enroll c =
      Hashtbl.replace vsig c (clause_sig (c_lits t c));
      for i = 0 to c_size t c - 1 do
        let v = c_lit t c i lsr 1 in
        occ.(v) <- c :: occ.(v)
      done
    in
    let queue = Queue.create () in
    Veci.iter
      (fun c ->
        if (not (c_deleted t c)) && not (satisfied0 t c) then begin
          enroll c;
          Queue.add c queue
        end)
      t.clauses;
    (* fewest-occurrences literal of [c] keys the candidate scan *)
    let best_var c =
      let bv = ref (c_lit t c 0 lsr 1) in
      for i = 0 to c_size t c - 1 do
        let v = c_lit t c i lsr 1 in
        if List.length occ.(v) < List.length occ.(!bv) then bv := v
      done;
      !bv
    in
    while (not (Queue.is_empty queue)) && !checks < max_checks && t.ok do
      let c = Queue.pop queue in
      if (not (c_deleted t c)) && not (satisfied0 t c) then begin
        let cands = occ.(best_var c) in
        let csig = Hashtbl.find vsig c in
        List.iter
          (fun d ->
            if
              t.ok && d <> c && (not (c_deleted t d))
              && c_size t d >= c_size t c
              && csig land Hashtbl.find vsig d = csig
              && not (satisfied0 t d)
            then begin
              incr checks;
              match subsume_test t c d with
              | `No -> ()
              | `Sub ->
                remove_problem_clause t ~log:true d;
                incr changed;
                t.n_subsumed <- t.n_subsumed + 1
              | `Self l ->
                (* d' = d \ {neg l} is the resolvent of c and d on l
                   and is subsumed-checkable by RUP from both *)
                let lits =
                  Array.to_list (c_lits t d) |> List.filter (fun x -> x <> l lxor 1)
                in
                if proof_on t then log_step t (Step_rup (Array.of_list lits));
                remove_problem_clause t ~log:true d;
                incr changed;
                t.n_strengthened <- t.n_strengthened + 1;
                (match add_clause_core t lits with
                | Some d' ->
                  enroll d';
                  Queue.add d' queue
                | None -> ())
            end)
          cands
      end
    done;
    sweep_clauses t;
    !changed
  end

(* --- bounded variable elimination --- *)

(* Resolvent of [c] (contains var [v] positively) and [d] (negatively),
   or [None] if tautological. *)
let resolve_on t v c d =
  let lits = ref [] in
  let add c =
    for i = 0 to c_size t c - 1 do
      let l = c_lit t c i in
      if l lsr 1 <> v then lits := l :: !lits
    done
  in
  add c;
  add d;
  let lits = List.sort_uniq Int.compare !lits in
  let rec taut = function
    | a :: (b :: _ as rest) -> (a lxor 1 = b && a lsr 1 = b lsr 1) || taut rest
    | _ -> false
  in
  if taut lits then None else Some lits

let bve_pass ?(max_elims = 200) ?(occ_limit = 10) ?(len_limit = 16) t =
  if (not t.ok) || decision_level t <> 0 then 0
  else begin
    let occ_pos = Array.make (max 1 t.nvars) []
    and occ_neg = Array.make (max 1 t.nvars) [] in
    let enroll c =
      for i = 0 to c_size t c - 1 do
        let l = c_lit t c i in
        let v = l lsr 1 in
        if l land 1 = 0 then occ_pos.(v) <- c :: occ_pos.(v)
        else occ_neg.(v) <- c :: occ_neg.(v)
      done
    in
    let live c = (not (c_deleted t c)) && not (satisfied0 t c) in
    Veci.iter (fun c -> if live c then enroll c) t.clauses;
    let eliminated_now = ref [] in
    let elims = ref 0 in
    let v = ref 0 in
    while !v < t.nvars && !elims < max_elims && t.ok do
      let var = !v in
      incr v;
      if
        (not t.frozen.(var))
        && (not t.eliminated.(var))
        && t.assigns.(var) = 0
        && t.pb_wsize.(2 * var) = 0
        && t.pb_wsize.((2 * var) + 1) = 0
      then begin
        let pos = List.filter live occ_pos.(var)
        and neg = List.filter live occ_neg.(var) in
        let np = List.length pos and nn = List.length neg in
        if np <= occ_limit && nn <= occ_limit && np + nn > 0 then begin
          (* collect resolvents; bail out on growth or length blowup *)
          let resolvents = ref [] and count = ref 0 and fits = ref true in
          List.iter
            (fun c ->
              List.iter
                (fun d ->
                  if !fits then
                    match resolve_on t var c d with
                    | None -> ()
                    | Some lits ->
                      if List.length lits > len_limit then fits := false
                      else begin
                        incr count;
                        if !count > np + nn then fits := false
                        else resolvents := lits :: !resolvents
                      end)
                neg)
            pos;
          if !fits then begin
            (* stash the originals (unlogged deletions, see above) and
               install the resolvents *)
            let stash =
              List.map
                (fun c ->
                  let lits = c_lits t c in
                  remove_problem_clause t ~log:false c;
                  lits)
                (pos @ neg)
            in
            t.elim_stack <- (var, stash) :: t.elim_stack;
            t.eliminated.(var) <- true;
            t.n_elim <- t.n_elim + 1;
            eliminated_now := var :: !eliminated_now;
            incr elims;
            List.iter
              (fun lits ->
                if t.ok then begin
                  if proof_on t then
                    log_step t (Step_rup (Array.of_list lits));
                  t.n_elim_resolvents <- t.n_elim_resolvents + 1;
                  match add_clause_core t lits with
                  | Some c -> enroll c
                  | None -> ()
                end)
              (List.rev !resolvents)
          end
        end
      end
    done;
    (* learnt clauses over an eliminated variable could re-assign it:
       drop them (their additions were logged, so log the deletions) *)
    if !eliminated_now <> [] then begin
      Veci.iter
        (fun c ->
          if
            (not (c_deleted t c))
            && c_exists t c (fun l -> t.eliminated.(l lsr 1))
          then begin
            log_step t (Step_delete (c_lits t c));
            detach_clause t c;
            delete_clause t c
          end)
        t.learnts;
      Veci.filter_in_place (fun c -> not (c_deleted t c)) t.learnts
    end;
    sweep_clauses t;
    !elims
  end

(* Extend a model over the eliminated variables, newest elimination
   first: each variable is set true exactly when one of its stashed
   positive-occurrence clauses has every other literal false.  The
   stashed resolvents guarantee this choice satisfies the negative
   occurrences too, so the extended model satisfies the original
   formula. *)
let extend_model t =
  let mval l =
    let b = t.model.(l lsr 1) in
    if l land 1 = 0 then b else not b
  in
  List.iter
    (fun (v, stash) ->
      let pos = 2 * v in
      let forced =
        List.exists
          (fun lits ->
            mem_lit lits pos
            && Array.for_all (fun l -> l = pos || not (mval l)) lits)
          stash
      in
      t.model.(v) <- forced)
    t.elim_stack

(* --- lookahead probes (cube splitting) --- *)

type probe_result =
  | Probe of { pos_gain : int; neg_gain : int }
      (* trail growth of asserting the variable each way *)
  | Probe_failed_lit  (* one polarity failed: a unit was learnt *)
  | Probe_refuted  (* both polarities failed: instance is Unsat *)

(* Probe literal [l] at a fresh decision level; [-1] means conflict. *)
let probe_lit t l =
  new_decision_level t;
  let before = Veci.size t.trail in
  enqueue t l none;
  let r =
    let confl = propagate t in
    if confl = none then Veci.size t.trail - before
    else begin
      if proof_on t then log_pb_conflict t confl;
      -1
    end
  in
  cancel_until t 0;
  r

(* Learn the unit [l] discovered by a failed-literal probe. *)
let assert_probed_unit t l =
  if proof_on t then log_step t (Step_rup [| l |]);
  enqueue t l none;
  let r = propagate t in
  r <> none
  && begin
    t.ok <- false;
    log_refutation t r;
    true
  end

let probe_var t v =
  if (not t.ok) || decision_level t <> 0 || t.assigns.(v) <> 0 || t.eliminated.(v)
  then Probe { pos_gain = 0; neg_gain = 0 }
  else begin
    t.probe_logging <- proof_on t;
    let finish r =
      t.probe_logging <- false;
      r
    in
    let pos = probe_lit t (2 * v) in
    if pos < 0 then begin
      (* v must be false *)
      if assert_probed_unit t ((2 * v) + 1) then finish Probe_refuted
      else finish Probe_failed_lit
    end
    else begin
      let neg = probe_lit t ((2 * v) + 1) in
      if neg < 0 then
        if assert_probed_unit t (2 * v) then finish Probe_refuted
        else finish Probe_failed_lit
      else finish (Probe { pos_gain = pos; neg_gain = neg })
    end
  end

(* Is [v] assigned (at any level)?  The cube splitter uses this to
   drop encoder-hinted variables the presolve already fixed. *)
let is_assigned t v = v >= 0 && v < t.nvars && t.assigns.(v) <> 0

(* The [n] unassigned, uneliminated variables of highest VSIDS
   activity — the cube splitter's fallback candidates when the encoder
   supplied no decision hints. *)
let top_vars t n =
  let act = !(t.activity) in
  let cands = ref [] in
  for v = 0 to t.nvars - 1 do
    if t.assigns.(v) = 0 && not t.eliminated.(v) then cands := v :: !cands
  done;
  let sorted =
    List.sort (fun a b -> Float.compare act.(b) act.(a)) !cands
  in
  List.filteri (fun i _ -> i < n) sorted

(* Progress telemetry, polled at the budget-checkpoint cadence and once
   at the end of a solve.  The guard is one atomic load when
   observability is off — the search loop itself never samples a
   clock. *)
let obs_sample t ~last_t ~last_confl ~last_prop =
  let module Obs = Taskalloc_obs.Obs in
  if Obs.on () || Obs.sample_hook_installed () then begin
    let tnow = Obs.now () in
    let dt = if Float.is_nan !last_t then 0. else tnow -. !last_t in
    let dc = t.conflicts - !last_confl and dp = t.propagations - !last_prop in
    last_t := tnow;
    last_confl := t.conflicts;
    last_prop := t.propagations;
    let l = lbd_summary t in
    let trail = Veci.size t.trail in
    let conflicts_per_s = if dt > 0. then float_of_int dc /. dt else 0. in
    let propagations_per_s = if dt > 0. then float_of_int dp /. dt else 0. in
    if Obs.metrics_on () then begin
      Obs.Metrics.incr "solver.progress_samples";
      Obs.Metrics.set "solver.conflicts" t.conflicts;
      Obs.Metrics.set "solver.propagations" t.propagations;
      Obs.Metrics.set "solver.restarts" t.restarts;
      Obs.Metrics.set "solver.reduce_dbs" t.reduce_dbs;
      Obs.Metrics.set "solver.clause_props" t.clause_props;
      Obs.Metrics.set "solver.pb_props" t.pb_props;
      Obs.Metrics.set "solver.clause_conflicts" t.clause_conflicts;
      Obs.Metrics.set "solver.pb_conflicts" t.pb_conflicts;
      Obs.Metrics.set "solver.learnts_live" l.live;
      Obs.Metrics.observe "solver.trail_depth" trail;
      if dt > 0. then begin
        Obs.Metrics.observe "solver.conflicts_per_s" (int_of_float conflicts_per_s);
        Obs.Metrics.observe "solver.propagations_per_s"
          (int_of_float propagations_per_s)
      end
    end;
    (* "t" carries the wall-clock read this sample already made, so
       downstream consumers (the daemon's flight recorder, watchers)
       can timestamp it without sampling any clock themselves *)
    Obs.emit_sample "solver.progress"
      [
        ("t", tnow);
        ("conflicts", float_of_int t.conflicts);
        ("conflicts_per_s", conflicts_per_s);
        ("propagations", float_of_int t.propagations);
        ("propagations_per_s", propagations_per_s);
        ("trail", float_of_int trail);
        ("decision_level", float_of_int (Veci.size t.trail_lim));
        ("restarts", float_of_int t.restarts);
        ("learnts", float_of_int l.live);
        ("glue", float_of_int l.glue);
        ("avg_lbd", l.avg_lbd);
        ("reduce_dbs", float_of_int t.reduce_dbs);
      ]
  end

let solve_main ?(assumptions = []) ?(max_conflicts = max_int) ?budget t =
  (* clear the previous answer's assumption state up front so an
     interleaved plain [solve] never sees a stale failed-assumption
     core from an earlier assumption-Unsat call *)
  t.core <- None;
  if not t.ok then begin
    t.core <- Some [||];
    Unsat
  end
  else begin
    cancel_until t 0;
    let r = propagate t in
    if r <> none then begin
      t.ok <- false;
      log_refutation t r;
      t.core <- Some [||];
      Unsat
    end
    else begin
      (* assumption variables must keep their input meaning across this
         and future solves: freeze them (reintroducing any that BVE
         already eliminated) before inprocessing can run *)
      List.iter (fun l -> freeze t (l lsr 1)) assumptions;
      let assumptions = Array.of_list assumptions in
      t.max_learnts <-
        max 1000. (float_of_int (Veci.size t.clauses + Vec.size t.pbs) /. 3.);
      (* thread the shared budget through the search: conflicts and
         propagations consumed here are charged as deltas, and the
         tripwires are polled at the budget's conflict cadence *)
      let last_confl = ref t.conflicts and last_prop = ref t.propagations in
      let commit () =
        match budget with
        | None -> ()
        | Some b ->
          Budget.charge b
            ~conflicts:(t.conflicts - !last_confl)
            ~propagations:(t.propagations - !last_prop);
          last_confl := t.conflicts;
          last_prop := t.propagations
      in
      let s_last_t = ref Float.nan
      and s_last_confl = ref t.conflicts
      and s_last_prop = ref t.propagations in
      let sample () = obs_sample t ~last_t:s_last_t ~last_confl:s_last_confl ~last_prop:s_last_prop in
      let checkpoint () =
        match budget with
        | None -> false
        | Some b ->
          commit ();
          sample ();
          Budget.exhausted b
      in
      let check_every =
        match budget with None -> max_int | Some b -> Budget.check_every b
      in
      if checkpoint () then Unknown (* spent before we even started *)
      else begin
        let conflicts_left =
          ref
            (match budget with
            | None -> max_conflicts
            | Some b -> min max_conflicts (Budget.remaining_conflicts b))
        in
        let stopped () =
          match budget with None -> false | Some b -> Budget.tripped b
        in
        let result = ref Unknown in
        let i = ref 0 in
        while !result = Unknown && !conflicts_left > 0 && not (stopped ()) do
          (* between episodes the trail is at level 0: adopt clauses
             shared by other portfolio workers, if any, and give the
             inprocessing hook (scheduled by [Inprocess]) its slot *)
          do_import t;
          (match t.inprocess with Some f when t.ok -> f t | _ -> ());
          if not t.ok then result := Unsat
          else begin
            let limit = min !conflicts_left (t.restart_first * Luby.get !i) in
            incr i;
            t.restarts <- t.restarts + 1;
            let r = search t assumptions limit ~check_every ~checkpoint in
            conflicts_left := !conflicts_left - limit;
            if r <> Unknown then result := r
            else t.max_learnts <- t.max_learnts *. 1.1
          end
        done;
        commit ();
        (* one closing sample so short budgeted solves still report *)
        sample ();
        (match !result with
        | Sat ->
          (* save the model before undoing the trail *)
          if Array.length t.model < t.nvars then t.model <- Array.make t.nvars false;
          for v = 0 to t.nvars - 1 do
            t.model.(v) <- t.assigns.(v) = 1
          done;
          (* BVE-eliminated variables are unassigned: extend the model
             over them so [model_value] answers for the full formula *)
          if t.elim_stack <> [] then extend_model t
        | Unsat ->
          (* Unsat without a recorded failed-assumption core means the
             instance itself is inconsistent (level-0 conflict or a
             falsifying clause import): the empty core *)
          if t.core = None then t.core <- Some [||]
        | Unknown -> ());
        cancel_until t 0;
        !result
      end
    end
  end

let solve ?assumptions ?max_conflicts ?budget t =
  let c0 = t.conflicts
  and d0 = t.decisions
  and p0 = t.propagations
  and r0 = t.restarts
  and l0 = t.learnt_total in
  Fun.protect
    ~finally:(fun () ->
      t.last_stats <-
        {
          d_conflicts = t.conflicts - c0;
          d_decisions = t.decisions - d0;
          d_propagations = t.propagations - p0;
          d_restarts = t.restarts - r0;
          d_learnt = t.learnt_total - l0;
        })
    (fun () -> solve_main ?assumptions ?max_conflicts ?budget t)

let last_solve_stats t = t.last_stats

(* Value of a literal in the most recent satisfying model. *)
let model_value t l =
  let b = t.model.(l lsr 1) in
  if l land 1 = 0 then b else not b

(* Failed assumptions of the most recent Unsat answer. *)
let unsat_core t =
  match t.core with
  | Some c -> Array.to_list c
  | None -> invalid_arg "Solver.unsat_core: the last solve did not return Unsat"

(* -- constraint database inspection ------------------------------------ *)

(* Fold over the problem clauses (not learnt ones), as literal lists.
   Includes clauses retired by inprocessing: BVE-stashed originals keep
   the fold equivalent to the input formula (resolvents alone only
   preserve satisfiability), and the proof graveyard keeps it a
   superset of every clause a logged trace may reference. *)
let fold_clauses f acc t =
  let acc = ref acc in
  Veci.iter
    (fun c -> if not (c_deleted t c) then acc := f !acc (Array.to_list (c_lits t c)))
    t.clauses;
  let acc = !acc in
  let acc =
    List.fold_left
      (fun acc (_, stash) ->
        List.fold_left (fun acc lits -> f acc (Array.to_list lits)) acc stash)
      acc t.elim_stack
  in
  List.fold_left (fun acc lits -> f acc (Array.to_list lits)) acc t.graveyard

(* Fold over the PB constraints as (pairs, degree) in >=-form. *)
let fold_pbs f acc t =
  Vec.fold
    (fun acc (pb : pb) ->
      let pairs =
        List.init (Array.length pb.plits) (fun i -> (pb.coeffs.(i), pb.plits.(i)))
      in
      f acc (pairs, pb.degree))
    acc t.pbs

(* Literals of every level-0 forced assignment (units). *)
let level0_units t =
  let acc = ref [] in
  Veci.iter
    (fun l -> if t.level.(l lsr 1) = 0 then acc := l :: !acc)
    t.trail;
  List.rev !acc

(* -- convenience constraint forms -------------------------------------- *)

let add_at_most_one t lits =
  match lits with
  | [] | [ _ ] -> ()
  | _ ->
    (* sum (neg l) >= n-1  <=>  sum l <= 1 *)
    let n = List.length lits in
    add_pb_geq t (List.map (fun l -> (1, l lxor 1)) lits) (n - 1)

let add_at_least_one t lits = add_clause t lits

let add_exactly_one t lits =
  add_at_least_one t lits;
  add_at_most_one t lits
