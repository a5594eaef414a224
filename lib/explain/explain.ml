(* Infeasibility explanation over the grouped encoding.

   Every probe here is an assumption-only re-solve on a long-lived
   session: the grouped encoding is built once per session, group
   selectors are enforced or relaxed through [Solver.solve
   ~assumptions], and failed-assumption cores ([Solver.unsat_core])
   both seed the diagnosis and fast-forward the deletion MUS loop
   (clause-set refinement: an Unsat probe's core replaces the whole
   working set).  Criticality is preserved under refinement because
   group sets are monotone — any subset of a satisfiable group set is
   satisfiable — so once [work \ {g}] was Sat, [g] belongs to every
   later unsat subset of [work]. *)

open Taskalloc_sat
open Taskalloc_pb
open Taskalloc_bv
open Taskalloc_rt
open Taskalloc_core
module Portfolio = Taskalloc_portfolio.Portfolio
module Budget = Taskalloc_sat.Budget
module Obs = Taskalloc_obs.Obs
module Json = Taskalloc_obs.Json

(* -- sessions ----------------------------------------------------------- *)

module Session = struct
  type t = {
    enc : Encode.t;
    solver : Solver.t;
    groups : Encode.group array;
    index_of : (Lit.t, int) Hashtbl.t; (* selector -> group index *)
    mutable solves : int;
  }

  let create ?options ?config problem =
    let enc = Encode.encode ?options ~groups:true problem Encode.Feasible in
    let solver = Bv.solver (Encode.context enc) in
    (match config with None -> () | Some c -> Solver.set_config solver c);
    let groups = Array.of_list (Encode.groups enc) in
    let index_of = Hashtbl.create (max 8 (2 * Array.length groups)) in
    Array.iteri (fun i g -> Hashtbl.replace index_of g.Encode.selector i) groups;
    { enc; solver; groups; index_of; solves = 0 }

  let encoding t = t.enc
  let solver t = t.solver
  let groups t = t.groups
  let solves t = t.solves

  (* One assumption probe with the CEGAR interlock: on a lazy
     encoding a Sat answer is re-checked against the exact analysis
     and re-solved after each refinement round, so callers only ever
     see genuine models.  Unsat (and its core) and Unknown are final
     as-is: the lazy formula is a relaxation, and refinements only
     ever grow it monotonically, so group/assumption semantics are
     stable across the loop. *)
  let rec solve_lits ?budget sess assumptions =
    sess.solves <- sess.solves + 1;
    match Solver.solve ~assumptions ?budget sess.solver with
    | Solver.Sat ->
      if Encode.Lazy.refine sess.enc > 0 then solve_lits ?budget sess assumptions
      else Solver.Sat
    | r -> r

  (* solve with the groups of [on] enforced and every other group free *)
  let solve ?budget ?(extra = []) sess on =
    let assumptions =
      List.map (fun i -> sess.groups.(i).Encode.selector) on @ extra
    in
    solve_lits ?budget sess assumptions

  let solve_all ?budget ?extra sess =
    solve ?budget ?extra sess (List.init (Array.length sess.groups) Fun.id)

  (* failed assumptions of the last Unsat answer, as group indices *)
  let core_indices sess =
    Solver.unsat_core sess.solver
    |> List.filter_map (fun l -> Hashtbl.find_opt sess.index_of l)
    |> List.sort_uniq Int.compare
end

type sess = Session.t = {
  enc : Encode.t;
  solver : Solver.t;
  groups : Encode.group array;
  index_of : (Lit.t, int) Hashtbl.t;
  mutable solves : int;
}

let make_sess = Session.create
let solve_groups = Session.solve
let core_indices = Session.core_indices

let remove x = List.filter (fun y -> y <> x)

let rec take n = function
  | [] -> []
  | x :: r -> if n <= 0 then [] else x :: take (n - 1) r

(* -- deletion MUS with clause-set refinement ---------------------------- *)

(* [sessions.(0)] is the caller's session; with [jobs > 1] each round
   races up to [Array.length sessions] distinct candidate deletions,
   one per diversified session, and the first Unsat answer shrinks the
   working set for everyone.  Sat losers still certify their candidate
   as critical (monotonicity, see header).  Returns the final working
   set and whether it was proven minimal. *)
let shrink ?budget ?(extra = []) ~sessions core0 =
  let work = ref core0 in
  (* core-size trajectory of the deletion loop *)
  let trajectory () =
    if Obs.on () then begin
      let n = List.length !work in
      Obs.Metrics.observe "explain.core_size" n;
      Obs.instant "explain.core" ~attrs:[ ("size", string_of_int n) ]
    end
  in
  trajectory ();
  let critical = ref [] in
  let minimal = ref true in
  let running = ref true in
  let n_sessions = Array.length sessions in
  while !running do
    let untested = List.filter (fun g -> not (List.mem g !critical)) !work in
    match untested with
    | [] -> running := false
    | g :: _ when n_sessions = 1 || List.length untested = 1 -> (
      match
        Obs.span "explain.candidate"
          ~attrs:[ ("group", string_of_int g) ]
          (fun () -> solve_groups ?budget ~extra sessions.(0) (remove g !work))
      with
      | Solver.Sat -> critical := g :: !critical
      | Solver.Unsat ->
        let c = core_indices sessions.(0) in
        work := c;
        critical := List.filter (fun x -> List.mem x c) !critical;
        trajectory ()
      | Solver.Unknown ->
        minimal := false;
        running := false)
    | untested -> (
      let batch = Array.of_list (take n_sessions untested) in
      let snapshot = !work in
      let before =
        Array.map
          (fun s -> (Solver.n_conflicts s.solver, Solver.n_propagations s.solver))
          sessions
      in
      let outcome =
        Portfolio.race ~jobs:(Array.length batch) ?budget
          ~worker:(fun i _config ~budget ->
            let s = sessions.(i) in
            let g = batch.(i) in
            let r =
              Obs.span "explain.candidate"
                ~attrs:[ ("group", string_of_int g) ]
                (fun () -> solve_groups ?budget ~extra s (remove g snapshot))
            in
            let c = if r = Solver.Unsat then core_indices s else [] in
            (g, r, c))
          ~conclusive:(fun (_, r, _) -> r = Solver.Unsat)
          ()
      in
      (* the race derives child budgets; charge the caller's budget
         with the maximum worker spend, as the portfolio layer does *)
      (match budget with
      | None -> ()
      | Some b ->
        let mc = ref 0 and mp = ref 0 in
        Array.iteri
          (fun i s ->
            let c0, p0 = before.(i) in
            mc := max !mc (Solver.n_conflicts s.solver - c0);
            mp := max !mp (Solver.n_propagations s.solver - p0))
          sessions;
        Budget.charge b ~conflicts:!mc ~propagations:!mp);
      let mark_critical g =
        if not (List.mem g !critical) then critical := g :: !critical
      in
      if outcome.Portfolio.winner >= 0 then (
        match outcome.Portfolio.results.(outcome.Portfolio.winner) with
        | Some (_, _, c) ->
          work := c;
          critical := List.filter (fun x -> List.mem x c) !critical;
          trajectory ();
          Array.iter
            (function
              | Some (g, Solver.Sat, _) when List.mem g c -> mark_critical g
              | _ -> ())
            outcome.Portfolio.results
        | None -> ())
      else begin
        let progressed = ref false in
        Array.iter
          (function
            | Some (g, Solver.Sat, _) ->
              progressed := true;
              mark_critical g
            | _ -> ())
          outcome.Portfolio.results;
        if not !progressed then begin
          (* every probe cancelled or exhausted: anytime answer *)
          minimal := false;
          running := false
        end
      end)
  done;
  (!work, !minimal)

(* -- correction sets (grow then minimize, with blocking) ---------------- *)

let correction_sets ?budget sess all ~k =
  let found = ref [] in
  let stop = ref false in
  (* grow a correction set by peeling one core member at a time *)
  let rec grow r =
    let enabled = List.filter (fun g -> not (List.mem g r)) all in
    match solve_groups ?budget sess enabled with
    | Solver.Sat -> Some r
    | Solver.Unknown -> None
    | Solver.Unsat -> (
      match core_indices sess with
      | [] -> None (* infeasible regardless of the tagged groups *)
      | g :: _ -> grow (g :: r))
  in
  let minimize r =
    List.fold_left
      (fun kept g ->
        let r' = remove g kept in
        let enabled = List.filter (fun x -> not (List.mem x r')) all in
        match solve_groups ?budget sess enabled with
        | Solver.Sat -> r'
        | Solver.Unsat | Solver.Unknown -> kept)
      r r
  in
  while (not !stop) && List.length !found < k do
    match grow [] with
    | None | Some [] -> stop := true
    | Some r ->
      let r = minimize r in
      found := r :: !found;
      (* block this set: at least one member stays enforced from now
         on, so the next grow finds a different relaxation *)
      Solver.add_clause sess.solver
        (List.map (fun i -> sess.groups.(i).Encode.selector) r)
  done;
  List.rev !found

(* -- the report --------------------------------------------------------- *)

type status =
  | Feasible
  | Explained of { core : Encode.group list; minimal : bool }
  | Unknown

type report = {
  status : status;
  relaxations : Encode.group list list;
  solves : int;
  time_s : float;
}

let explain ?options ?(jobs = 1) ?budget ?(max_relaxations = 3) problem =
  let t0 = Unix.gettimeofday () in
  let main = make_sess ?options problem in
  let all = List.init (Array.length main.groups) Fun.id in
  let finish status relaxations sessions =
    let solves = Array.fold_left (fun a (s : sess) -> a + s.solves) 0 sessions in
    { status; relaxations; solves; time_s = Unix.gettimeofday () -. t0 }
  in
  match solve_groups ?budget main all with
  | Solver.Sat -> finish Feasible [] [| main |]
  | Solver.Unknown -> finish Unknown [] [| main |]
  | Solver.Unsat ->
    let core0 = core_indices main in
    let sessions =
      if jobs <= 1 then [| main |]
      else
        Array.init jobs (fun i ->
            if i = 0 then main
            else make_sess ?options ~config:(Portfolio.diversify i) problem)
    in
    let core, minimal =
      Obs.span "explain.shrink"
        ~attrs:[ ("core0", string_of_int (List.length core0)) ]
        (fun () -> shrink ?budget ~sessions core0)
    in
    let relaxations =
      Obs.span "explain.correction_sets" (fun () ->
          correction_sets ?budget main all ~k:max_relaxations)
    in
    let to_groups = List.map (fun i -> main.groups.(i)) in
    finish
      (Explained { core = to_groups core; minimal })
      (List.map to_groups relaxations)
      sessions

let pp_report ppf r =
  (match r.status with
  | Feasible ->
    Format.fprintf ppf "FEASIBLE: all constraint groups are satisfiable together"
  | Unknown -> Format.fprintf ppf "UNKNOWN: budget exhausted before a first answer"
  | Explained { core = []; _ } ->
    Format.fprintf ppf
      "INFEASIBLE regardless of the tagged constraint groups@\n\
       (structural: placement domains, routing, or response-time definitions)"
  | Explained { core; minimal } ->
    Format.fprintf ppf "INFEASIBLE: %s unsatisfiable core (%d constraint group%s):"
      (if minimal then "minimal" else "valid (budget stopped the shrink)")
      (List.length core)
      (if List.length core = 1 then "" else "s");
    List.iter
      (fun g -> Format.fprintf ppf "@\n  - %s" g.Encode.descr)
      core;
    match r.relaxations with
    | [] -> ()
    | rs ->
      Format.fprintf ppf "@\nfeasible again by dropping all of any one line:";
      List.iter
        (fun set ->
          Format.fprintf ppf "@\n  - %s"
            (String.concat " AND "
               (List.map (fun g -> g.Encode.descr) set)))
        rs);
  Format.fprintf ppf "@\nexplain: %d solver calls in %.2fs" r.solves r.time_s

(* -- JSON --------------------------------------------------------------- *)

let groups_to_json gs =
  let group g =
    Json.Obj
      [ ("id", Json.Str (Encode.group_id g)); ("descr", Json.Str g.Encode.descr) ]
  in
  Json.List (List.map group gs)

let placement_to_json problem (alloc : Model.allocation) =
  let seat i e =
    Json.List [ Json.Str problem.Model.tasks.(i).Model.task_name; Json.Int e ]
  in
  Json.List (Array.to_list (Array.mapi seat alloc.Model.task_ecu))

let report_to_json r =
  let status, minimal, core =
    match r.status with
    | Feasible -> ("feasible", true, [])
    | Unknown -> ("unknown", false, [])
    | Explained { core; minimal } -> ("infeasible", minimal, core)
  in
  Json.Obj
    [
      ("status", Json.Str status);
      ("minimal", Json.Bool minimal);
      ("core", groups_to_json core);
      ("relaxations", Json.List (List.map groups_to_json r.relaxations));
      ("solves", Json.Int r.solves);
      ("time_s", Json.Float r.time_s);
    ]

(* -- incremental what-if sessions --------------------------------------- *)

module Whatif = struct
  type delta =
    | Pin of { task : int; ecu : int }
    | Forbid of { task : int; ecu : int }
    | Set_deadline of { task : int; deadline : int }
    | Drop of Encode.group_kind

  type verdict =
    | Feasible of { allocation : Model.allocation; relaxed : bool }
    | Infeasible of { groups : Encode.group list; deltas : delta list }
    | Unknown

  (* The deadline-delta cache is bounded: a long-lived session fed a
     stream of distinct [Set_deadline] deltas would otherwise grow its
     table without limit.  Eviction is least-recently-used, because
     [Bv.le_const] is not cached at the circuit layer: evicting a delta
     the caller is still re-applying would make every re-application
     reify a fresh duplicate comparator into the solver, growing the
     formula without bound.  LRU keeps live deltas pinned while cold
     one-off deadlines age out. *)
  let max_deadline_bits = 128

  type t = {
    sess : sess;
    problem : Model.problem;
    deadline_bits : (int * int, Circuits.bit * int) Hashtbl.t;
        (* (task, deadline) -> reified [r_i <= d - J_i] plus the
           entry's latest recency stamp, cached so a revisited
           tightening reuses (never re-reifies) its comparator *)
    deadline_lru : ((int * int) * int) Queue.t;
        (* recency order; an entry whose stamp no longer matches the
           table is stale (the key was touched since) and is skipped
           at eviction time *)
    mutable deadline_stamp : int;
    mutable queries : int;
  }

  let create ?options problem =
    {
      sess = make_sess ?options problem;
      problem;
      deadline_bits = Hashtbl.create 8;
      deadline_lru = Queue.create ();
      deadline_stamp = 0;
      queries = 0;
    }

  let cached_deadline_bits t = Hashtbl.length t.deadline_bits
  let session_vars t = Solver.n_vars t.sess.solver

  let solves t = t.sess.solves
  let queries t = t.queries

  let describe t d =
    let tname i = t.problem.Model.tasks.(i).Model.task_name in
    match d with
    | Pin { task; ecu } -> Printf.sprintf "pin %s on ECU%d" (tname task) ecu
    | Forbid { task; ecu } ->
      Printf.sprintf "forbid %s on ECU%d" (tname task) ecu
    | Set_deadline { task; deadline } ->
      Printf.sprintf "deadline of %s := %d" (tname task) deadline
    | Drop kind -> (
      match Encode.find_group t.sess.enc kind with
      | Some g -> Printf.sprintf "drop %s" g.Encode.descr
      | None -> "drop <no such constraint group>")

  (* groups a query disables: explicit [Drop]s, plus the original
     deadline group of any [Set_deadline] looser than the declared one *)
  let disabled_kinds t deltas =
    List.filter_map
      (function
        | Drop k -> Some k
        | Set_deadline { task; deadline }
          when deadline > t.problem.Model.tasks.(task).Model.deadline ->
          Some (Encode.G_deadline task)
        | _ -> None)
      deltas

  let delta_bit t d =
    let ctx = Encode.context t.sess.enc in
    match d with
    | Pin { task; ecu } -> Encode.task_selector t.sess.enc ~task ~ecu
    | Forbid { task; ecu } ->
      Circuits.bnot (Encode.task_selector t.sess.enc ~task ~ecu)
    | Set_deadline { task; deadline } -> (
      let key = (task, deadline) in
      let touch b =
        t.deadline_stamp <- t.deadline_stamp + 1;
        Hashtbl.replace t.deadline_bits key (b, t.deadline_stamp);
        Queue.push (key, t.deadline_stamp) t.deadline_lru
      in
      match Hashtbl.find_opt t.deadline_bits key with
      | Some (b, _) ->
        (* refresh recency: a delta a caller keeps re-applying must
           not be the eviction victim, or every re-application would
           reify a duplicate comparator circuit into the solver *)
        touch b;
        b
      | None ->
        let jitter = t.problem.Model.tasks.(task).Model.jitter in
        let b =
          if deadline - jitter < 0 then Circuits.Zero
          else
            Bv.le_const ctx
              (Encode.response_time t.sess.enc task)
              (deadline - jitter)
        in
        if Hashtbl.length t.deadline_bits >= max_deadline_bits then begin
          (* evict the least recently used live entry; queue entries
             whose stamp is outdated are leftovers of later touches *)
          let rec evict () =
            let victim, stamp = Queue.pop t.deadline_lru in
            match Hashtbl.find_opt t.deadline_bits victim with
            | Some (_, s) when s = stamp -> Hashtbl.remove t.deadline_bits victim
            | _ -> evict ()
          in
          evict ()
        end;
        touch b;
        b)
    | Drop _ -> Circuits.One (* expressed through the disabled groups *)

  exception Trivially_infeasible of delta

  let query_run ?budget t deltas =
    t.queries <- t.queries + 1;
    let sess = t.sess in
    let disabled = disabled_kinds t deltas in
    let group_assumptions =
      Array.to_list sess.groups
      |> List.map (fun (g : Encode.group) ->
             if List.mem g.Encode.kind disabled then Lit.neg g.Encode.selector
             else g.Encode.selector)
    in
    match
      List.filter_map
        (fun d ->
          match delta_bit t d with
          | Circuits.One -> None
          | Circuits.Zero -> raise (Trivially_infeasible d)
          | Circuits.Lit l -> Some (l, d))
        deltas
    with
    | exception Trivially_infeasible d ->
      Infeasible { groups = []; deltas = [ d ] }
    | delta_lits -> (
      let assumptions = group_assumptions @ List.map fst delta_lits in
      match Session.solve_lits ?budget sess assumptions with
      | Solver.Sat ->
        Feasible
          { allocation = Encode.extract sess.enc; relaxed = disabled <> [] }
      | Solver.Unknown -> Unknown
      | Solver.Unsat ->
        let core = Solver.unsat_core sess.solver in
        let groups =
          List.filter_map
            (fun l ->
              Option.map
                (fun i -> sess.groups.(i))
                (Hashtbl.find_opt sess.index_of l))
            core
        in
        let core_deltas =
          List.filter_map (fun l -> List.assoc_opt l delta_lits) core
        in
        Infeasible { groups; deltas = core_deltas })

  (* The allocation in force answers a query when the independent
     checker accepts it and it meets every delta.  It is then a model
     of the query's assumptions, so the answer is [Feasible] without a
     solve; otherwise only the solver can tell. *)
  let answers t current deltas =
    Check.check t.problem current = []
    &&
    let responses =
      lazy (Analysis.all_task_response_times t.problem current)
    in
    List.for_all
      (function
        | Pin { task; ecu } -> current.Model.task_ecu.(task) = ecu
        | Forbid { task; ecu } -> current.Model.task_ecu.(task) <> ecu
        | Set_deadline { task; deadline } -> (
          match (Lazy.force responses).(task) with
          | Some r -> r + t.problem.Model.tasks.(task).Model.jitter <= deadline
          | None -> false)
        | Drop _ -> true)
      deltas

  let query ?budget ?current t deltas =
    Obs.span "whatif.query"
      ~attrs:[ ("deltas", string_of_int (List.length deltas)) ]
      (fun () ->
        match current with
        | Some a when answers t a deltas ->
          t.queries <- t.queries + 1;
          if Obs.metrics_on () then Obs.Metrics.incr "whatif.witness";
          Feasible { allocation = a; relaxed = disabled_kinds t deltas <> [] }
        | _ -> query_run ?budget t deltas)

  (* -- CLI query language ------------------------------------------- *)

  let parse_deltas problem s =
    let tasks = problem.Model.tasks in
    let ( let* ) = Result.bind in
    let find_task tok =
      let by_name = ref (-1) in
      Array.iteri
        (fun i (t : Model.task) -> if t.Model.task_name = tok then by_name := i)
        tasks;
      if !by_name >= 0 then Ok !by_name
      else
        match int_of_string_opt tok with
        | Some i when i >= 0 && i < Array.length tasks -> Ok i
        | _ -> Error (Printf.sprintf "unknown task %S" tok)
    in
    let int tok what =
      match int_of_string_opt tok with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "bad %s %S" what tok)
    in
    let clause toks =
      match toks with
      | [ "pin"; t; e ] ->
        let* task = find_task t in
        let* ecu = int e "ECU" in
        Ok (Pin { task; ecu })
      | [ "forbid"; t; e ] ->
        let* task = find_task t in
        let* ecu = int e "ECU" in
        Ok (Forbid { task; ecu })
      | [ "deadline"; t; d ] ->
        let* task = find_task t in
        let* deadline = int d "deadline" in
        Ok (Set_deadline { task; deadline })
      | [ "drop"; "deadline"; t ] ->
        let* task = find_task t in
        Ok (Drop (Encode.G_deadline task))
      | [ "drop"; "separation"; a; b ] ->
        let* a = find_task a in
        let* b = find_task b in
        Ok (Drop (Encode.G_separation (min a b, max a b)))
      | [ "drop"; "placement"; t ] ->
        let* task = find_task t in
        Ok (Drop (Encode.G_placement task))
      | [ "drop"; "capacity"; e ] ->
        let* ecu = int e "ECU" in
        Ok (Drop (Encode.G_capacity ecu))
      | [ "drop"; "msg-deadline"; m ] ->
        let* m = int m "message id" in
        Ok (Drop (Encode.G_msg_deadline m))
      | _ ->
        Error
          (Printf.sprintf "cannot parse query clause %S"
             (String.concat " " toks))
    in
    let clauses =
      String.split_on_char ',' s
      |> List.concat_map (String.split_on_char ';')
      |> List.map String.trim
      |> List.filter (fun c -> c <> "")
    in
    let* deltas =
      List.fold_left
        (fun acc c ->
          let* acc = acc in
          let toks =
            String.split_on_char ' ' c |> List.filter (fun x -> x <> "")
          in
          let* d = clause toks in
          Ok (d :: acc))
        (Ok []) clauses
    in
    Ok (List.rev deltas)

  let verdict_to_json t v =
    match v with
    | Feasible { allocation; relaxed } ->
      Json.Obj
        [
          ("status", Json.Str "feasible");
          ("relaxed", Json.Bool relaxed);
          ("placement", placement_to_json t.problem allocation);
        ]
    | Unknown -> Json.Obj [ ("status", Json.Str "unknown") ]
    | Infeasible { groups; deltas } ->
      Json.Obj
        [
          ("status", Json.Str "infeasible");
          ("core_groups", groups_to_json groups);
          ( "core_deltas",
            Json.List (List.map (fun d -> Json.Str (describe t d)) deltas) );
        ]
end
