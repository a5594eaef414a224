(* Tests for the infeasibility explanation engine: MUS extraction over
   constraint groups, correction sets, and incremental what-if sessions.

   The workhorse instance is a pigeonhole-flavoured allocation problem:
   three tasks of WCET 15 with deadline 20 on two ECUs.  Some pair must
   share an ECU and its lower-priority member then sees 15 + 15 = 30 >
   20, so the instance is infeasible and the unique MUS is the set of
   the three deadline groups. *)

open Taskalloc_rt
open Taskalloc_core
module Explain = Taskalloc_explain.Explain
module Json = Taskalloc_obs.Json
module Solver = Taskalloc_sat.Solver
module Budget = Taskalloc_sat.Budget
module Bv = Taskalloc_bv.Bv
module Workloads = Taskalloc_workloads.Workloads

let arch2 =
  {
    Model.n_ecus = 2;
    media =
      [
        {
          Model.med_id = 0;
          med_name = "bus";
          kind = Model.Tdma;
          ecus = [ 0; 1 ];
          byte_time = 1;
          frame_overhead = 2;
        };
      ];
    mem_capacity = [| 32; 32 |];
    gateway_service = 0;
    barred = [];
  }

let mk_task id name period deadline wcets =
  {
    Model.task_id = id;
    task_name = name;
    period;
    wcets;
    deadline;
    memory = 1;
    separation = [];
    messages = [];
    jitter = 0;
    blocking = 0;
    criticality = 0;
  }

let overconstrained () =
  Model.make_problem ~arch:arch2
    ~tasks:
      [
        mk_task 0 "fusion-a" 100 20 [ (0, 15); (1, 15) ];
        mk_task 1 "fusion-b" 100 20 [ (0, 15); (1, 15) ];
        mk_task 2 "fusion-c" 100 20 [ (0, 15); (1, 15) ];
        mk_task 3 "logger" 200 150 [ (0, 20); (1, 20) ];
        mk_task 4 "watchdog" 100 90 [ (0, 5); (1, 5) ];
      ]

let feasible_problem () =
  Model.make_problem ~arch:arch2
    ~tasks:
      [
        mk_task 0 "a" 100 50 [ (0, 15); (1, 15) ];
        mk_task 1 "b" 100 50 [ (0, 15); (1, 15) ];
        mk_task 2 "c" 100 90 [ (0, 5); (1, 5) ];
      ]

let core_ids status =
  match status with
  | Explain.Explained { core; _ } -> List.map Encode.group_id core
  | _ -> Alcotest.fail "expected an Explained status"

(* Oracle: re-check a reported core against a fresh grouped encoding.
   The group ids are stable across encodings of the same problem, so we
   can look the selectors up by id.  The probe runs the solve/refine
   loop so the oracle stays sound when the default encoding is lazy
   (TASKALLOC_LAZY=1): an abstract Sat is provisional until refinement
   reaches a fixpoint. *)
let fresh_session problem =
  let enc = Encode.encode ~groups:true problem Encode.Feasible in
  let solver = Bv.solver (Encode.context enc) in
  let selector_of id =
    match
      List.find_opt (fun g -> Encode.group_id g = id) (Encode.groups enc)
    with
    | Some g -> g.Encode.selector
    | None -> Alcotest.fail ("group not found in fresh encoding: " ^ id)
  in
  let assume ids =
    let assumptions = List.map selector_of ids in
    let rec go () =
      match Solver.solve ~assumptions solver with
      | Solver.Sat when Encode.Lazy.refine enc > 0 -> go ()
      | r -> r
    in
    go ()
  in
  (assume, selector_of)

let assume_groups assume _selector_of ids = assume ids

let test_explain_feasible () =
  let report = Explain.explain (feasible_problem ()) in
  (match report.Explain.status with
  | Explain.Feasible -> ()
  | _ -> Alcotest.fail "expected Feasible");
  Alcotest.(check (list (list string))) "no relaxations" []
    (List.map (List.map Encode.group_id) report.Explain.relaxations)

let test_explain_core_is_deadlines () =
  let problem = overconstrained () in
  let report = Explain.explain problem in
  match report.Explain.status with
  | Explain.Explained { core; minimal } ->
    Alcotest.(check bool) "minimal" true minimal;
    Alcotest.(check int) "three groups" 3 (List.length core);
    List.iter
      (fun g ->
        match g.Encode.kind with
        | Encode.G_deadline _ -> ()
        | _ -> Alcotest.fail ("unexpected group in core: " ^ Encode.group_id g))
      core
  | _ -> Alcotest.fail "expected Explained"

let test_core_unsat_in_isolation () =
  let problem = overconstrained () in
  let report = Explain.explain problem in
  let ids = core_ids report.Explain.status in
  let assume, selector_of = fresh_session problem in
  Alcotest.(check bool) "core unsat in a fresh session" true
    (assume_groups assume selector_of ids = Solver.Unsat)

let test_core_minimality () =
  (* deletion oracle: dropping any single group from the MUS is Sat *)
  let problem = overconstrained () in
  let report = Explain.explain problem in
  let ids = core_ids report.Explain.status in
  let assume, selector_of = fresh_session problem in
  List.iter
    (fun dropped ->
      let rest = List.filter (fun id -> id <> dropped) ids in
      Alcotest.(check bool)
        ("sat without " ^ dropped)
        true
        (assume_groups assume selector_of rest = Solver.Sat))
    ids

let lazy_opts = { Encode.default_options with Encode.lazy_mode = true }

let test_core_minimality_lazy () =
  (* the CEGAR encoding must reproduce the eager diagnosis: the same
     unique MUS, proven minimal, with a lazy session as the deletion
     oracle (Session.solve refines to a fixpoint before answering Sat,
     so the oracle itself exercises the abstraction loop) *)
  let problem = overconstrained () in
  let report = Explain.explain ~options:lazy_opts problem in
  (match report.Explain.status with
  | Explain.Explained { minimal; _ } ->
    Alcotest.(check bool) "minimal" true minimal
  | _ -> Alcotest.fail "expected Explained");
  let ids = core_ids report.Explain.status in
  let eager = Explain.explain problem in
  Alcotest.(check (list string))
    "same MUS as eager"
    (List.sort compare (core_ids eager.Explain.status))
    (List.sort compare ids);
  let sess = Explain.Session.create ~options:lazy_opts problem in
  let groups = Explain.Session.groups sess in
  let index_of id =
    let found = ref (-1) in
    Array.iteri (fun i g -> if Encode.group_id g = id then found := i) groups;
    if !found < 0 then Alcotest.fail ("group not found: " ^ id);
    !found
  in
  let idxs = List.map index_of ids in
  Alcotest.(check bool) "core unsat in a fresh lazy session" true
    (Explain.Session.solve sess idxs = Solver.Unsat);
  List.iter
    (fun dropped ->
      let rest = List.filter (fun i -> i <> dropped) idxs in
      Alcotest.(check bool) "sat without one group" true
        (Explain.Session.solve sess rest = Solver.Sat))
    idxs

let test_relaxations_restore_feasibility () =
  let problem = overconstrained () in
  let report = Explain.explain ~max_relaxations:3 problem in
  Alcotest.(check bool) "some relaxation reported" true
    (report.Explain.relaxations <> []);
  let all = Encode.groups (Encode.encode ~groups:true problem Encode.Feasible) in
  List.iter
    (fun relax ->
      let relax_ids = List.map Encode.group_id relax in
      let keep =
        List.filter_map
          (fun g ->
            let id = Encode.group_id g in
            if List.mem id relax_ids then None else Some id)
          all
      in
      let assume, selector_of = fresh_session problem in
      Alcotest.(check bool)
        ("feasible after dropping " ^ String.concat "," relax_ids)
        true
        (assume_groups assume selector_of keep = Solver.Sat))
    report.Explain.relaxations

let test_parallel_shrink_agrees () =
  let problem = overconstrained () in
  let seq = Explain.explain problem in
  let par = Explain.explain ~jobs:2 problem in
  let sort = List.sort compare in
  Alcotest.(check (list string))
    "same core set" (sort (core_ids seq.Explain.status))
    (sort (core_ids par.Explain.status))

let test_budget_expiry_mid_shrink () =
  (* chaos: starve the engine at various conflict budgets; it must
     never raise, and any Explained answer must be a genuine unsat
     core (possibly non-minimal) *)
  let problem = overconstrained () in
  List.iter
    (fun max_conflicts ->
      let budget = Budget.create ~max_conflicts () in
      let report = Explain.explain ~budget problem in
      match report.Explain.status with
      | Explain.Unknown | Explain.Feasible -> ()
      | Explain.Explained { core = []; _ } ->
        (* an empty core claims unconditional infeasibility, which is
           false for this instance *)
        Alcotest.fail "empty core under budget starvation"
      | Explain.Explained { core; _ } ->
        let assume, selector_of = fresh_session problem in
        Alcotest.(check bool)
          (Printf.sprintf "valid core at budget %d" max_conflicts)
          true
          (assume_groups assume selector_of (List.map Encode.group_id core)
          = Solver.Unsat))
    [ 1; 5; 20; 100; 1000 ]

let test_whatif_session_reuse () =
  let problem = overconstrained () in
  let w = Explain.Whatif.create problem in
  let expect_infeasible label v =
    match v with
    | Explain.Whatif.Infeasible { groups; _ } ->
      Alcotest.(check bool) (label ^ ": named groups") true (groups <> [])
    | _ -> Alcotest.fail (label ^ ": expected Infeasible")
  in
  expect_infeasible "baseline" (Explain.Whatif.query w []);
  (match Explain.Whatif.query w [ Explain.Whatif.Drop (Encode.G_deadline 0) ] with
  | Explain.Whatif.Feasible { relaxed; allocation } ->
    Alcotest.(check bool) "marked relaxed" true relaxed;
    Alcotest.(check int) "placement covers all tasks" 5
      (Array.length allocation.Model.task_ecu)
  | _ -> Alcotest.fail "drop deadline should be feasible");
  (* deltas must not leak into later queries *)
  expect_infeasible "baseline again" (Explain.Whatif.query w []);
  (* pinning two fusion tasks together is also infeasible, but the
     baseline core (the three deadlines) already suffices, so the
     reported core need not mention the pins *)
  expect_infeasible "two pins on one ECU"
    (Explain.Whatif.query w
       [
         Explain.Whatif.Pin { task = 0; ecu = 0 };
         Explain.Whatif.Pin { task = 1; ecu = 0 };
       ]);
  Alcotest.(check int) "queries counted" 4 (Explain.Whatif.queries w)

let test_whatif_deadline_delta () =
  let problem = feasible_problem () in
  let w = Explain.Whatif.create problem in
  (match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible { relaxed; _ } ->
    Alcotest.(check bool) "baseline not relaxed" false relaxed
  | _ -> Alcotest.fail "baseline should be feasible");
  (* tightening all three deadlines to 15 recreates the pigeonhole:
     every task then needs an ECU to itself *)
  let tighten task = Explain.Whatif.Set_deadline { task; deadline = 15 } in
  (match Explain.Whatif.query w [ tighten 0; tighten 1; tighten 2 ] with
  | Explain.Whatif.Infeasible { deltas; _ } ->
    Alcotest.(check bool) "tightenings blamed in core" true (deltas <> [])
  | _ -> Alcotest.fail "three tightened deadlines should be infeasible");
  match Explain.Whatif.query w [ tighten 0 ] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "one tightened deadline should stay feasible"

let test_whatif_cache_bounded () =
  (* regression: the per-(task, deadline) reification cache used to
     grow without bound on long-lived sessions.  150 distinct deadline
     deltas on one session must stay within the cache cap, and deltas
     whose bits were evicted must still answer correctly when asked
     again (re-reified, not corrupted). *)
  let problem = feasible_problem () in
  let w = Explain.Whatif.create problem in
  let ask deadline =
    Explain.Whatif.query w
      [ Explain.Whatif.Set_deadline { task = 0; deadline } ]
  in
  (* task 0 runs in 15 ticks wherever it lands, and can always have an
     ECU to itself: any deadline >= 15 is feasible *)
  for d = 15 to 164 do
    match ask d with
    | Explain.Whatif.Feasible _ -> ()
    | _ -> Alcotest.failf "deadline %d should be feasible" d
  done;
  Alcotest.(check bool) "cache bounded after 150 distinct deltas" true
    (Explain.Whatif.cached_deadline_bits w <= 128);
  (* the earliest delta has long been evicted; revisiting it must
     re-reify and still answer correctly, on both polarities *)
  (match ask 15 with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "evicted delta must still answer feasible");
  (match ask 14 with
  | Explain.Whatif.Infeasible _ -> ()
  | _ -> Alcotest.fail "deadline below the WCET must stay infeasible");
  Alcotest.(check int) "queries counted" 152 (Explain.Whatif.queries w)

let inprocess_opts =
  { Encode.default_options with Encode.inprocess = Some true }

let test_explain_inprocessing () =
  (* frozen-variable regression: group selectors are assumption
     variables, so BVE must leave them standing for the MUS machinery
     to keep its meaning.  The diagnosis must match the default
     encoding's unique MUS exactly. *)
  let problem = overconstrained () in
  let report = Explain.explain ~options:inprocess_opts problem in
  (match report.Explain.status with
  | Explain.Explained { minimal; _ } ->
    Alcotest.(check bool) "minimal" true minimal
  | _ -> Alcotest.fail "expected Explained");
  let default = Explain.explain problem in
  Alcotest.(check (list string))
    "same MUS as without inprocessing"
    (List.sort compare (core_ids default.Explain.status))
    (List.sort compare (core_ids report.Explain.status))

let test_whatif_inprocessing () =
  (* a long-lived what-if session with passes active: deadline deltas
     reify against response-time terms whose variables the session
     names later, so elimination must never invalidate a cached bit *)
  let problem = feasible_problem () in
  let w = Explain.Whatif.create ~options:inprocess_opts problem in
  (match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible { relaxed; _ } ->
    Alcotest.(check bool) "baseline not relaxed" false relaxed
  | _ -> Alcotest.fail "baseline should be feasible");
  let tighten task = Explain.Whatif.Set_deadline { task; deadline = 15 } in
  (match Explain.Whatif.query w [ tighten 0; tighten 1; tighten 2 ] with
  | Explain.Whatif.Infeasible { deltas; _ } ->
    Alcotest.(check bool) "tightenings blamed in core" true (deltas <> [])
  | _ -> Alcotest.fail "three tightened deadlines should be infeasible");
  (match Explain.Whatif.query w [ tighten 0 ] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "one tightened deadline should stay feasible");
  (* and the baseline still answers after the detours *)
  match Explain.Whatif.query w [] with
  | Explain.Whatif.Feasible _ -> ()
  | _ -> Alcotest.fail "baseline must stay feasible"

let test_parse_deltas () =
  let problem = overconstrained () in
  let ok s =
    match Explain.Whatif.parse_deltas problem s with
    | Ok ds -> ds
    | Error m -> Alcotest.fail (s ^ ": " ^ m)
  in
  Alcotest.(check int) "empty query" 0 (List.length (ok ""));
  (match ok "pin fusion-a 1, forbid 2 0" with
  | [ Explain.Whatif.Pin { task = 0; ecu = 1 }; Explain.Whatif.Forbid { task = 2; ecu = 0 } ]
    -> ()
  | _ -> Alcotest.fail "pin/forbid parse");
  (match ok "drop deadline fusion-b; deadline watchdog 40" with
  | [
      Explain.Whatif.Drop (Encode.G_deadline 1);
      Explain.Whatif.Set_deadline { task = 4; deadline = 40 };
    ] -> ()
  | _ -> Alcotest.fail "drop/deadline parse");
  (match Explain.Whatif.parse_deltas problem "pin nosuch 0" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown task must be rejected");
  match Explain.Whatif.parse_deltas problem "frobnicate 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown verb must be rejected"

(* Random instances on two ECUs: whenever the engine explains one, the
   core must re-solve to Unsat in a fresh session and, when claimed
   minimal, lose unsatisfiability on every single-group deletion. *)
let prop_explained_cores_check =
  let gen =
    QCheck.Gen.(
      let* n_tasks = int_range 2 5 in
      let task_gen i =
        let* w = int_range 5 20 in
        let* slack = int_range 0 25 in
        let deadline = w + slack in
        let* extra = int_range 0 60 in
        return (mk_task i (Printf.sprintf "t%d" i) (deadline + extra) deadline
                  [ (0, w); (1, w) ])
      in
      let rec tasks i =
        if i = n_tasks then return []
        else
          let* t = task_gen i in
          let* rest = tasks (i + 1) in
          return (t :: rest)
      in
      let* ts = tasks 0 in
      return (Model.make_problem ~arch:arch2 ~tasks:ts))
  in
  QCheck.Test.make ~count:40 ~name:"explained cores verify against the oracle"
    (QCheck.make gen)
    (fun problem ->
      let report = Explain.explain problem in
      match report.Explain.status with
      | Explain.Feasible | Explain.Unknown -> true
      | Explain.Explained { core; minimal } ->
        let ids = List.map Encode.group_id core in
        let assume, selector_of = fresh_session problem in
        assume_groups assume selector_of ids = Solver.Unsat
        && ((not minimal)
           || List.for_all
                (fun dropped ->
                  let rest = List.filter (fun id -> id <> dropped) ids in
                  assume_groups assume selector_of rest = Solver.Sat)
                ids))

(* -- what-if answers from the allocation in force ---------------------- *)

module W = Explain.Whatif

let test_whatif_current_answers () =
  let problem = feasible_problem () in
  let current =
    match Allocator.find_feasible ~fallback:false problem with
    | Allocator.Solved r -> r.Allocator.allocation
    | _ -> Alcotest.fail "fixture should be feasible"
  in
  let seat0 = current.Model.task_ecu.(0) in
  let w = W.create problem in
  let expect_current label ~relaxed v =
    match v with
    | W.Feasible { allocation; relaxed = r } ->
      Alcotest.(check bool) (label ^ ": the allocation in force") true
        (allocation == current);
      Alcotest.(check bool) (label ^ ": relaxed") relaxed r
    | _ -> Alcotest.failf "%s: expected feasible" label
  in
  expect_current "baseline" ~relaxed:false (W.query ~current w []);
  expect_current "pin on its seat" ~relaxed:false
    (W.query ~current w [ W.Pin { task = 0; ecu = seat0 } ]);
  expect_current "drop" ~relaxed:true
    (W.query ~current w [ W.Drop (Encode.G_deadline 1) ]);
  (* a spent budget does not hide a definitive answer that costs no
     solver work *)
  let spent = Budget.create ~check_every:1 ~should_stop:(fun () -> true) () in
  expect_current "spent budget" ~relaxed:false
    (W.query ~budget:spent ~current w []);
  Alcotest.(check int) "no solver call so far" 0 (W.solves w);
  Alcotest.(check int) "every query counted" 4 (W.queries w);
  (* forbidding the seat in force needs the solver *)
  (match W.query ~current w [ W.Forbid { task = 0; ecu = seat0 } ] with
  | W.Feasible { allocation; _ } ->
    Alcotest.(check bool) "a new allocation" false (allocation == current);
    Alcotest.(check bool) "seat forbidden" true
      (allocation.Model.task_ecu.(0) <> seat0)
  | _ -> Alcotest.fail "moving one task should stay feasible");
  Alcotest.(check bool) "the solver ran" true (W.solves w > 0)

(* Differential: a session queried with the allocation in force and one
   queried without must agree on every verdict.  Deltas are drawn
   relative to that allocation (its seats, its response times), so many
   hold under it and many do not. *)
type intent =
  | I_pin of int * bool * int  (* task, at its seat in force?, else ECU *)
  | I_forbid of int * bool * int
  | I_deadline of int * int  (* task, offset from response + jitter *)
  | I_drop_deadline of int
  | I_drop_capacity of int

let gen_intent =
  QCheck.Gen.(
    let* task = int_range 0 63 in
    let* at_seat = bool in
    let* ecu = int_range 0 63 in
    let* off = int_range (-6) 20 in
    frequency
      [
        (3, return (I_pin (task, at_seat, ecu)));
        (2, return (I_forbid (task, at_seat, ecu)));
        (3, return (I_deadline (task, off)));
        (1, return (I_drop_deadline task));
        (1, return (I_drop_capacity ecu));
      ])

let differential_problem family seed =
  match family with
  | 0 -> ("small", Workloads.small ~seed ())
  | 1 -> ("jittery", Workloads.small_jittery ~seed ())
  | 2 -> ("can", Workloads.small_can ~seed ())
  | _ ->
    let h = [| Workloads.A; Workloads.B; Workloads.C |].(seed mod 3) in
    ("hierarchical", Workloads.small_hierarchical ~seed h)

let prop_whatif_current_agrees (family, seed, lazy_mode, queries) =
  let _, problem = differential_problem family seed in
  let options = { Encode.default_options with Encode.lazy_mode } in
  match Allocator.find_feasible ~options ~fallback:false problem with
  | Allocator.Infeasible | Allocator.Unknown -> QCheck.assume_fail ()
  | Allocator.Solved r ->
    let current = r.Allocator.allocation in
    let tasks = problem.Model.tasks in
    let n = Array.length tasks and n_ecus = problem.Model.arch.Model.n_ecus in
    let responses = Analysis.all_task_response_times problem current in
    let ecu task at_seat e =
      if at_seat then current.Model.task_ecu.(task) else e mod n_ecus
    in
    let delta = function
      | I_pin (t, at_seat, e) ->
        let task = t mod n in
        W.Pin { task; ecu = ecu task at_seat e }
      | I_forbid (t, at_seat, e) ->
        let task = t mod n in
        W.Forbid { task; ecu = ecu task at_seat e }
      | I_deadline (t, off) ->
        let task = t mod n in
        let r = Option.value responses.(task) ~default:tasks.(task).Model.deadline in
        W.Set_deadline { task; deadline = r + tasks.(task).Model.jitter + off }
      | I_drop_deadline t -> W.Drop (Encode.G_deadline (t mod n))
      | I_drop_capacity e -> W.Drop (Encode.G_capacity (e mod n_ecus))
    in
    let with_current = W.create ~options problem in
    let without = W.create ~options problem in
    List.for_all
      (fun intents ->
        let deltas = List.map delta intents in
        let show = String.concat ", " (List.map (W.describe without) deltas) in
        let disabled =
          List.exists
            (function
              | W.Drop _ -> true
              | W.Set_deadline { task; deadline } -> deadline > tasks.(task).Model.deadline
              | W.Pin _ | W.Forbid _ -> false)
            deltas
        in
        let solves = W.solves with_current in
        let a = W.query ~current with_current deltas in
        let b = W.query without deltas in
        match (a, b) with
        | W.Feasible fa, W.Feasible fb ->
          if fa.allocation == current && W.solves with_current <> solves then
            QCheck.Test.fail_reportf "[%s] answered from the allocation in force but solved"
              show;
          if fa.relaxed <> disabled || fb.relaxed <> disabled then
            QCheck.Test.fail_reportf "[%s] relaxed flag differs from the disabled groups"
              show;
          true
        | W.Infeasible _, W.Infeasible _ -> true
        | _ ->
          let status = function
            | W.Feasible _ -> "feasible"
            | W.Infeasible _ -> "infeasible"
            | W.Unknown -> "unknown"
          in
          QCheck.Test.fail_reportf "[%s] with current: %s, without: %s" show
            (status a) (status b))
      queries

let whatif_current_differential =
  QCheck.Test.make ~count:40
    ~name:"whatif: allocation in force agrees with the solver"
    (QCheck.make
       ~print:(fun (family, seed, lazy_mode, queries) ->
         Printf.sprintf "%s seed %d%s, %d queries"
           (fst (differential_problem family seed))
           seed
           (if lazy_mode then " lazy" else "")
           (List.length queries))
       QCheck.Gen.(
         quad (int_range 0 3) (int_range 1 500) bool
           (list_repeat 6 (list_size (int_range 0 3) gen_intent))))
    prop_whatif_current_agrees

(* -- JSON answers: exact bytes ----------------------------------------- *)

(* The expected strings are the bytes of the printf emitters these
   answers had before they were built as [Json.t], with two deliberate
   differences: [time_s] prints as the shortest decimal that reads back
   as the same float ([0.25], not [0.250000]), and a tab or carriage
   return escapes as [\t] / [\r] rather than [\u0009] / [\u000d]. *)

(* names and descriptions carrying a quote, a backslash, a newline, a
   tab and a carriage return *)
let awkward_problem () =
  Model.make_problem ~arch:arch2
    ~tasks:
      [
        mk_task 0 "q\"uote" 100 50 [ (0, 15); (1, 15) ];
        mk_task 1 "back\\slash" 100 50 [ (0, 15); (1, 15) ];
        mk_task 2 "new\nline\ttab\rcr" 100 90 [ (0, 5); (1, 5) ];
      ]

let test_json_golden () =
  let group kind descr = { Encode.selector = Taskalloc_sat.Lit.of_var 1; kind; descr } in
  let g0 = group (Encode.G_deadline 0) "deadline of q\"uote (d=50)" in
  let g1 = group (Encode.G_separation (1, 2)) "sep \\ of\n\tx\r" in
  let report status relaxations solves time_s =
    Json.to_string (Explain.report_to_json { Explain.status; relaxations; solves; time_s })
  in
  Alcotest.(check string) "explained report"
    {|{"status":"infeasible","minimal":false,"core":[{"id":"deadline:0","descr":"deadline of q\"uote (d=50)"},{"id":"separation:1:2","descr":"sep \\ of\n\tx\r"}],"relaxations":[[{"id":"deadline:0","descr":"deadline of q\"uote (d=50)"}],[{"id":"separation:1:2","descr":"sep \\ of\n\tx\r"},{"id":"deadline:0","descr":"deadline of q\"uote (d=50)"}]],"solves":7,"time_s":0.25}|}
    (report
       (Explain.Explained { core = [ g0; g1 ]; minimal = false })
       [ [ g0 ]; [ g1; g0 ] ] 7 0.25);
  Alcotest.(check string) "feasible report"
    {|{"status":"feasible","minimal":true,"core":[],"relaxations":[],"solves":1,"time_s":1234567.891}|}
    (report Explain.Feasible [] 1 1234567.891);
  let w = Explain.Whatif.create (awkward_problem ()) in
  let verdict v = Json.to_string (Explain.Whatif.verdict_to_json w v) in
  let allocation =
    {
      Model.task_ecu = [| 0; 1; 0 |];
      msg_route = [||];
      slots = Hashtbl.create 1;
      priority_rank = None;
    }
  in
  Alcotest.(check string) "feasible verdict"
    {|{"status":"feasible","relaxed":true,"placement":[["q\"uote",0],["back\\slash",1],["new\nline\ttab\rcr",0]]}|}
    (verdict (Explain.Whatif.Feasible { allocation; relaxed = true }));
  Alcotest.(check string) "infeasible verdict"
    {|{"status":"infeasible","core_groups":[{"id":"separation:1:2","descr":"sep \\ of\n\tx\r"}],"core_deltas":["pin q\"uote on ECU1","forbid new\nline\ttab\rcr on ECU0","deadline of back\\slash := 40","drop deadline of new\nline\ttab\rcr (d=90)"]}|}
    (verdict
       (Explain.Whatif.Infeasible
          {
            groups = [ g1 ];
            deltas =
              [
                Explain.Whatif.Pin { task = 0; ecu = 1 };
                Explain.Whatif.Forbid { task = 2; ecu = 0 };
                Explain.Whatif.Set_deadline { task = 1; deadline = 40 };
                Explain.Whatif.Drop (Encode.G_deadline 2);
              ];
          }));
  Alcotest.(check string) "unknown verdict" {|{"status":"unknown"}|}
    (verdict Explain.Whatif.Unknown)

let suite =
  [
    Alcotest.test_case "feasible problem" `Quick test_explain_feasible;
    Alcotest.test_case "core is the three deadlines" `Quick
      test_explain_core_is_deadlines;
    Alcotest.test_case "core unsat in isolation" `Quick test_core_unsat_in_isolation;
    Alcotest.test_case "core minimality" `Quick test_core_minimality;
    Alcotest.test_case "core minimality (lazy encoding)" `Quick
      test_core_minimality_lazy;
    Alcotest.test_case "relaxations restore feasibility" `Quick
      test_relaxations_restore_feasibility;
    Alcotest.test_case "parallel shrink agrees" `Quick test_parallel_shrink_agrees;
    Alcotest.test_case "budget expiry mid-shrink" `Quick test_budget_expiry_mid_shrink;
    Alcotest.test_case "whatif session reuse" `Quick test_whatif_session_reuse;
    Alcotest.test_case "whatif deadline deltas" `Quick test_whatif_deadline_delta;
    Alcotest.test_case "whatif deadline-bit cache stays bounded" `Quick
      test_whatif_cache_bounded;
    Alcotest.test_case "explain with inprocessing" `Quick test_explain_inprocessing;
    Alcotest.test_case "whatif with inprocessing" `Quick test_whatif_inprocessing;
    Alcotest.test_case "parse deltas" `Quick test_parse_deltas;
    Alcotest.test_case "whatif answers from the allocation in force" `Quick
      test_whatif_current_answers;
    Alcotest.test_case "JSON answers: exact bytes" `Quick test_json_golden;
    QCheck_alcotest.to_alcotest whatif_current_differential;
    QCheck_alcotest.to_alcotest prop_explained_cores_check;
  ]
