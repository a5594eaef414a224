(* Tests for the online repair engine (lib/repair): minimal-perturbation
   repair, the mixed-criticality degradation ladder, scenario parsing,
   state integrity under budgets, and a brute-force minimal-migration
   oracle on small message-free instances. *)

open Taskalloc_rt
open Taskalloc_core
module Repair = Taskalloc_repair.Repair
module Json = Taskalloc_obs.Json
module Scenario = Taskalloc_repair.Scenario
module Heuristics = Taskalloc_heuristics.Heuristics
module Budget = Taskalloc_sat.Budget

let arch ?(mem = 64) n =
  {
    Model.n_ecus = n;
    media =
      [
        {
          Model.med_id = 0;
          med_name = "bus";
          kind = Model.Tdma;
          ecus = List.init n Fun.id;
          byte_time = 1;
          frame_overhead = 2;
        };
      ];
    mem_capacity = Array.make n mem;
    gateway_service = 0;
    barred = [];
  }

let mk_task ?(crit = 0) ?(messages = []) ?(period = 100) id name deadline wcets
    =
  {
    Model.task_id = id;
    task_name = name;
    period;
    wcets;
    deadline;
    memory = 1;
    separation = [];
    messages;
    jitter = 0;
    blocking = 0;
    criticality = crit;
  }

let everywhere n w = List.init n (fun e -> (e, w))

(* deterministic fixture allocation: task i on [placement.(i)] *)
let placed problem placement =
  match Heuristics.try_complete problem placement with
  | Some a -> a
  | None -> Alcotest.fail "fixture placement did not complete"

let repaired = function
  | Repair.Repaired r -> r
  | Repair.Irreparable { why; _ } -> Alcotest.failf "irreparable: %s" why
  | Repair.Unknown -> Alcotest.fail "unexpected Unknown"

(* three light tasks spread over three ECUs; two fit per ECU, not three *)
let spread_problem ?(crits = [| 0; 0; 0 |]) ?(wcet = 20) () =
  let tasks =
    List.init 3 (fun i ->
        mk_task ~crit:crits.(i) i
          (Printf.sprintf "t%d" i)
          50
          (everywhere 3 wcet))
  in
  Model.make_problem ~arch:(arch 3) ~tasks

let test_ecu_failure_warm () =
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "warm (assumption-only, no re-encode)" true r.warm;
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check bool) "not degraded" false r.degraded;
  Alcotest.(check int) "exactly the evicted task migrates" 1
    (List.length r.migrations);
  let m = List.hd r.migrations in
  Alcotest.(check string) "migrated task" "t2" m.Repair.m_task;
  Alcotest.(check bool) "forced" true m.Repair.m_forced;
  Alcotest.(check int) "from failed ECU" 2 m.Repair.m_from;
  Alcotest.(check bool) "to a surviving ECU" true
    (m.Repair.m_to = 0 || m.Repair.m_to = 1);
  Alcotest.(check int) "analyzer clean" 0 r.check_violations;
  Alcotest.(check int) "zero deadline misses in simulation" 0 r.sim_misses;
  (* state advanced: survivors kept their seats *)
  let a = Repair.allocation st in
  Alcotest.(check int) "t0 stays" 0 a.Model.task_ecu.(0);
  Alcotest.(check int) "t1 stays" 1 a.Model.task_ecu.(1);
  (* a second failure leaves 3 x 20 on one ECU against deadline 50:
     infeasible, and with uniform criticality nothing may be shed *)
  match Repair.repair st (Repair.Ecu_failure { ecu = 1 }) with
  | Repair.Irreparable _ ->
    (* untouched: the post-first-repair allocation stays in force *)
    Alcotest.(check int) "state kept 3 tasks" 3
      (Array.length (Repair.problem st).Model.tasks);
    Alcotest.(check (list string))
      "still analytically feasible" []
      (List.map
         (Fmt.str "%a" Check.pp_violation)
         (Check.check (Repair.problem st) (Repair.allocation st)))
  | Repair.Repaired _ -> Alcotest.fail "second failure must be irreparable"
  | Repair.Unknown -> Alcotest.fail "unbudgeted repair cannot pause"

let test_ecu_failure_warm_lazy () =
  (* same scenario over a CEGAR session: the warm (assumption-only)
     path must survive lazy encoding — refinement clauses are ordinary
     input clauses, so disabling an ECU by assumption composes with the
     solve/refine loop — and reach the same minimal repair *)
  let problem = spread_problem () in
  let options = { Encode.default_options with Encode.lazy_mode = true } in
  let st = Repair.create ~options problem (placed problem [| 0; 1; 2 |]) in
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "warm under lazy encoding" true r.warm;
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check bool) "not degraded" false r.degraded;
  Alcotest.(check int) "exactly the evicted task migrates" 1
    (List.length r.migrations);
  Alcotest.(check int) "analyzer clean" 0 r.check_violations;
  let a = Repair.allocation st in
  Alcotest.(check int) "t0 stays" 0 a.Model.task_ecu.(0);
  Alcotest.(check int) "t1 stays" 1 a.Model.task_ecu.(1);
  match Repair.repair st (Repair.Ecu_failure { ecu = 1 }) with
  | Repair.Irreparable _ -> ()
  | Repair.Repaired _ -> Alcotest.fail "second failure must be irreparable"
  | Repair.Unknown -> Alcotest.fail "unbudgeted repair cannot pause"

let test_ecu_failure_warm_inprocessing () =
  (* frozen-variable regression: the warm path disables ECUs purely by
     assumption, so with inprocessing active the selector variables
     must stay frozen — an eliminated selector would silently strip the
     failure from later solve calls *)
  let problem = spread_problem () in
  let options = { Encode.default_options with Encode.inprocess = Some true } in
  let st = Repair.create ~options problem (placed problem [| 0; 1; 2 |]) in
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "warm with passes active" true r.warm;
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check int) "exactly the evicted task migrates" 1
    (List.length r.migrations);
  Alcotest.(check int) "analyzer clean" 0 r.check_violations;
  match Repair.repair st (Repair.Ecu_failure { ecu = 1 }) with
  | Repair.Irreparable _ -> ()
  | Repair.Repaired _ ->
    Alcotest.fail "second failure must stay irreparable: both failure assumptions in force"
  | Repair.Unknown -> Alcotest.fail "unbudgeted repair cannot pause"

let test_mild_overrun_zero_migrations () =
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let r =
    repaired (Repair.repair st (Repair.Wcet_overrun { task = 0; percent = 150 }))
  in
  Alcotest.(check bool) "overrun rebuilds the session" false r.warm;
  Alcotest.(check int) "nobody moves" 0 (List.length r.migrations);
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check int) "sim clean" 0 r.sim_misses;
  Alcotest.(check int) "wcet actually scaled" 30
    (Model.wcet_on (Repair.problem st).Model.tasks.(0) 0)

let test_fatal_overrun_irreparable () =
  (* 600% of 20 = 120 > deadline 50 on every ECU: the task is doomed,
     and at uniform criticality it may not be shed *)
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  match Repair.repair st (Repair.Wcet_overrun { task = 0; percent = 600 }) with
  | Repair.Irreparable { why; _ } ->
    Alcotest.(check bool) "why is reported" true (String.length why > 0);
    Alcotest.(check int) "state untouched" 3
      (Array.length (Repair.problem st).Model.tasks)
  | _ -> Alcotest.fail "doomed HI task must be irreparable"

let test_ladder_sheds_lo_keeps_hi () =
  (* heavy tasks: only one fits per ECU.  After losing an ECU the LO
     task is shed and both HI tasks keep running. *)
  let tasks =
    [
      mk_task ~crit:1 0 "hi-a" 50 (everywhere 3 40);
      mk_task ~crit:1 1 "hi-b" 50 (everywhere 3 40);
      mk_task ~crit:0 2 "lo" 50 (everywhere 3 40);
    ]
  in
  let problem = Model.make_problem ~arch:(arch 3) ~tasks in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "degraded" true r.degraded;
  Alcotest.(check int) "one shed" 1 (List.length r.sheds);
  let s = List.hd r.sheds in
  Alcotest.(check string) "the LO task is shed" "lo" s.Repair.s_task;
  Alcotest.(check int) "at criticality 0" 0 s.Repair.s_criticality;
  Alcotest.(check int) "HI tasks keep their seats" 0
    (List.length r.migrations);
  Alcotest.(check int) "two survivors" 2
    (Array.length (Repair.problem st).Model.tasks);
  Alcotest.(check (list string)) "sheds recorded" [ "lo" ]
    (Repair.shed_so_far st);
  Alcotest.(check (option int)) "shed task no longer resolvable" None
    (Repair.find_task st "lo");
  Alcotest.(check int) "sim clean after degradation" 0 r.sim_misses

let test_no_shed_makes_it_irreparable () =
  let problem = spread_problem ~crits:[| 1; 1; 0 |] ~wcet:40 () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  match
    Repair.repair ~allow_shed:false st (Repair.Ecu_failure { ecu = 2 })
  with
  | Repair.Irreparable _ ->
    Alcotest.(check int) "state untouched" 3
      (Array.length (Repair.problem st).Model.tasks)
  | _ -> Alcotest.fail "without shedding this failure is irreparable"

let test_doomed_lo_sheds_itself () =
  (* the LO task can only run on the ECU that fails: it is doomed and
     sheds itself; the HI tasks never move *)
  let tasks =
    [
      mk_task ~crit:1 0 "hi-a" 50 (everywhere 3 20);
      mk_task ~crit:1 1 "hi-b" 50 (everywhere 3 20);
      mk_task ~crit:0 2 "pinned-lo" 50 [ (2, 20) ];
    ]
  in
  let problem = Model.make_problem ~arch:(arch 3) ~tasks in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "doomed tasks force the cold path" false r.warm;
  Alcotest.(check bool) "degraded" true r.degraded;
  Alcotest.(check (list string)) "the pinned LO task is shed"
    [ "pinned-lo" ]
    (List.map (fun s -> s.Repair.s_task) r.sheds);
  Alcotest.(check int) "no migrations" 0 (List.length r.migrations);
  Alcotest.(check int) "two survivors" 2
    (Array.length (Repair.problem st).Model.tasks)

let test_arrival_places_without_migration () =
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let r =
    repaired
      (Repair.repair st
         (Repair.Task_arrival
            {
              name = "newt";
              period = 100;
              deadline = 50;
              memory = 1;
              criticality = 0;
              wcets = everywhere 3 20;
            }))
  in
  Alcotest.(check int) "arrival is a placement, not a migration" 0
    (List.length r.migrations);
  Alcotest.(check int) "four tasks now" 4
    (Array.length (Repair.problem st).Model.tasks);
  Alcotest.(check bool) "new task resolvable" true
    (Repair.find_task st "newt" <> None);
  Alcotest.(check int) "sim clean" 0 r.sim_misses;
  (* duplicate names are rejected before any solving *)
  Alcotest.check_raises "duplicate arrival rejected"
    (Repair.Invalid_event "arrival newt: a task of that name is already running")
    (fun () ->
      ignore
        (Repair.repair st
           (Repair.Task_arrival
              {
                name = "newt";
                period = 100;
                deadline = 50;
                memory = 1;
                criticality = 0;
                wcets = everywhere 3 20;
              })))

let test_bus_degradation_colocates () =
  (* a producer pinned to ECU 0 streams to a consumer on ECU 1.  A
     20x slower bus pushes the frame past the message deadline, so the
     only repair is to co-locate the consumer: one voluntary migration,
     attributed to the message-deadline group with [~explain]. *)
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 4; msg_deadline = 40 } in
  let tasks =
    [
      mk_task ~messages:[ msg ] 0 "producer" 50 [ (0, 10) ];
      mk_task 1 "consumer" 50 [ (0, 10); (1, 10) ];
    ]
  in
  let problem = Model.make_problem ~arch:(arch 2) ~tasks in
  let st = Repair.create problem (placed problem [| 0; 1 |]) in
  let r =
    repaired
      (Repair.repair ~explain:true st
         (Repair.Bus_degradation { medium = 0; percent = 2000 }))
  in
  Alcotest.(check int) "one migration" 1 (List.length r.migrations);
  let m = List.hd r.migrations in
  Alcotest.(check string) "the consumer moves" "consumer" m.Repair.m_task;
  Alcotest.(check bool) "voluntary (old seat still admissible)" false
    m.Repair.m_forced;
  Alcotest.(check int) "co-located with the producer" 0 m.Repair.m_to;
  Alcotest.(check bool) "migration attributed to forcing groups" true
    (m.Repair.m_because <> []);
  Alcotest.(check int) "sim clean" 0 r.sim_misses

let test_budget_trip_leaves_state_intact () =
  (* a budget that trips at the very first poll: the repair must come
     back Unknown (or finish before ever polling) with the
     pre-disruption state bit-identical *)
  let problem = spread_problem ~crits:[| 1; 1; 0 |] ~wcet:40 () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let before = Array.copy (Repair.allocation st).Model.task_ecu in
  let budget =
    Budget.create ~check_every:1 ~should_stop:(fun () -> true) ()
  in
  (match Repair.repair ~budget st (Repair.Ecu_failure { ecu = 2 }) with
  | Repair.Unknown ->
    Alcotest.(check int) "problem untouched" 3
      (Array.length (Repair.problem st).Model.tasks);
    Alcotest.(check (array int)) "allocation untouched" before
      (Repair.allocation st).Model.task_ecu;
    Alcotest.(check (list string)) "no sheds recorded" []
      (Repair.shed_so_far st)
  | Repair.Repaired _ | Repair.Irreparable _ ->
    (* legal only if the solver finished before its first poll *)
    ());
  (* and the same state still repairs cleanly without a budget *)
  let r = repaired (Repair.repair st (Repair.Ecu_failure { ecu = 2 })) in
  Alcotest.(check bool) "subsequent unbudgeted repair degrades" true
    r.degraded

let test_multi_event_consistency () =
  (* overrun -> failure -> arrival on one session; after every repair
     the in-force allocation must satisfy the independent analyzer *)
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  let events =
    [
      Repair.Wcet_overrun { task = 1; percent = 120 };
      Repair.Ecu_failure { ecu = 0 };
      Repair.Task_arrival
        {
          name = "late";
          period = 200;
          deadline = 180;
          memory = 1;
          criticality = 0;
          wcets = everywhere 3 10;
        };
    ]
  in
  List.iteri
    (fun i ev ->
      let r = repaired (Repair.repair st ev) in
      let label = Printf.sprintf "event %d" i in
      Alcotest.(check int) (label ^ ": analyzer clean") 0 r.check_violations;
      Alcotest.(check int) (label ^ ": sim clean") 0 r.sim_misses;
      Alcotest.(check int)
        (label ^ ": allocation covers the problem")
        (Array.length (Repair.problem st).Model.tasks)
        (Array.length (Repair.allocation st).Model.task_ecu))
    events;
  Alcotest.(check int) "all four tasks alive at the end" 4
    (Array.length (Repair.problem st).Model.tasks)

let test_scenario_parsing () =
  let s =
    Scenario.parse_string
      "# a scenario\n\
       problem fleet.prob\n\
       at 400 degrade-bus bus 200  # late event first in the file\n\
       at 100 fail-ecu 1\n\
       at 250 wcet sensor 150\n\
       at 600 arrive logger2 100 80 2 crit 1 wcet 0 10 wcet 2 12\n"
  in
  Alcotest.(check (option string)) "problem path" (Some "fleet.prob")
    s.Scenario.problem_path;
  Alcotest.(check (list int)) "events sorted by tick" [ 100; 250; 400; 600 ]
    (List.map (fun e -> e.Scenario.at) s.Scenario.events);
  (match (List.nth s.Scenario.events 3).Scenario.spec with
  | Scenario.Arrive { a_name; a_crit; a_wcets; _ } ->
    Alcotest.(check string) "arrival name" "logger2" a_name;
    Alcotest.(check int) "arrival crit" 1 a_crit;
    Alcotest.(check (list (pair int int))) "arrival wcets"
      [ (0, 10); (2, 12) ] a_wcets
  | _ -> Alcotest.fail "expected an arrival");
  (* resolution against a live state, and name errors *)
  let problem = spread_problem () in
  let st = Repair.create problem (placed problem [| 0; 1; 2 |]) in
  (match Scenario.resolve st (Scenario.Wcet ("t1", 130)) with
  | Repair.Wcet_overrun { task = 1; percent = 130 } -> ()
  | _ -> Alcotest.fail "wcet resolution");
  (try
     ignore (Scenario.resolve st (Scenario.Wcet ("ghost", 130)));
     Alcotest.fail "unknown task must be rejected"
   with Repair.Invalid_event _ -> ());
  match Scenario.parse_string "at 5 fail-ecu\n" with
  | exception Scenario.Parse_error { line = 1; _ } -> ()
  | exception e -> raise e
  | _ -> Alcotest.fail "truncated event must not parse"

(* -------------------------------------------------------------------
   Brute-force minimal-migration oracle.  Message-free instances with
   pairwise-distinct deadlines make the deadline-monotonic priority
   order unique, so the analytical checker and the SAT encoder agree
   exactly and the minimal migration count is well defined. *)

let enumerate_placements problem =
  let domains =
    Array.map (fun t -> Array.of_list (Model.allowed_ecus problem t))
      problem.Model.tasks
  in
  let n = Array.length domains in
  let acc = ref [] in
  let cur = Array.make n 0 in
  let rec go i =
    if i = n then acc := Array.copy cur :: !acc
    else
      Array.iter
        (fun e ->
          cur.(i) <- e;
          go (i + 1))
        domains.(i)
  in
  if Array.for_all (fun d -> Array.length d > 0) domains then go 0;
  !acc

(* minimal Hamming distance from the pre-event seats to any placement
   that passes the independent analyzer; [None] = nothing feasible *)
let oracle_min_migrations old_alloc (d : Repair.disrupted) =
  if d.Repair.d_doomed <> [] then None
  else
    let p = d.Repair.d_problem in
    List.fold_left
      (fun best placement ->
        match Heuristics.try_complete p placement with
        | Some a when Check.check p a = [] ->
          let dist = ref 0 in
          Array.iteri
            (fun j e ->
              if e <> old_alloc.Model.task_ecu.(d.Repair.d_kept.(j)) then
                incr dist)
            placement;
          Some (match best with None -> !dist | Some b -> min b !dist)
        | _ -> best)
      None (enumerate_placements p)

let gen_oracle_case =
  QCheck.Gen.(
    let* n_ecus = 2 -- 3 in
    let* n_tasks = 3 -- 5 in
    let* wcets =
      list_repeat n_tasks (list_repeat n_ecus (int_range 8 22))
    in
    let* raw_dls = list_repeat n_tasks (int_range 5 12) in
    let* crits = list_repeat n_tasks (int_range 0 1) in
    let* fail = bool in
    let* which = int_range 0 (max 1 n_tasks - 1) in
    let* percent = int_range 110 260 in
    return (n_ecus, n_tasks, wcets, raw_dls, crits, fail, which, percent))

let build_oracle_case (n_ecus, _n_tasks, wcets, raw_dls, crits, _, _, _) =
  let tasks =
    List.mapi
      (fun i (ws, (dl, crit)) ->
        (* [dl * 8 + i] keeps deadlines pairwise distinct *)
        mk_task ~crit ~period:200 i
          (Printf.sprintf "t%d" i)
          ((dl * 8) + i)
          (List.mapi (fun e w -> (e, w)) ws))
      (List.combine wcets (List.combine raw_dls crits))
  in
  Model.make_problem ~arch:(arch n_ecus) ~tasks

let prop_repair_matches_oracle case =
  let (n_ecus, n_tasks, _, _, _, fail, which, percent) = case in
  let problem = build_oracle_case case in
  match Allocator.find_feasible ~fallback:false problem with
  | Allocator.Solved res ->
    let event =
      if fail then Repair.Ecu_failure { ecu = which mod n_ecus }
      else Repair.Wcet_overrun { task = which mod n_tasks; percent }
    in
    let oracle =
      oracle_min_migrations res.Allocator.allocation
        (Repair.apply_event problem event)
    in
    let st = Repair.create problem res.Allocator.allocation in
    (match Repair.repair ~allow_shed:false st event with
    | Repair.Repaired r ->
      (match oracle with
      | Some best ->
        if List.length r.Repair.migrations <> best then
          QCheck.Test.fail_reportf
            "repair migrated %d tasks, oracle minimum is %d"
            (List.length r.Repair.migrations)
            best;
        r.Repair.check_violations = 0 && r.Repair.sim_misses = 0
      | None ->
        QCheck.Test.fail_reportf
          "repair succeeded on an instance the oracle proves infeasible")
    | Repair.Irreparable _ ->
      if oracle <> None then
        QCheck.Test.fail_reportf
          "repair gave up, oracle found a placement with %d migrations"
          (Option.get oracle);
      true
    | Repair.Unknown -> QCheck.Test.fail_report "unbudgeted repair paused")
  | Allocator.Infeasible -> QCheck.assume_fail ()
  | Allocator.Unknown -> QCheck.assume_fail ()

let oracle_test =
  QCheck.Test.make ~count:40 ~name:"repair matches brute-force oracle"
    (QCheck.make ~print:(fun case ->
         Fmt.str "%a; event %s"
           (Fmt.array ~sep:Fmt.comma (fun ppf (t : Model.task) ->
                Fmt.pf ppf "%s dl=%d crit=%d wcets=%a" t.Model.task_name
                  t.Model.deadline t.Model.criticality
                  Fmt.(list ~sep:sp (pair ~sep:(Fmt.any ":") int int))
                  t.Model.wcets))
           (build_oracle_case case).Model.tasks
           (let (n_ecus, n_tasks, _, _, _, fail, which, percent) = case in
            if fail then Printf.sprintf "fail-ecu %d" (which mod n_ecus)
            else Printf.sprintf "wcet t%d %d%%" (which mod n_tasks) percent))
       gen_oracle_case)
    prop_repair_matches_oracle

(* -------------------------------------------------------------------
   Answers from the allocation in force. *)

let same_allocation label (a : Model.allocation) (b : Model.allocation) =
  let slots al =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) al.Model.slots []
    |> List.sort compare
  in
  Alcotest.(check (array int)) (label ^ ": placement") a.Model.task_ecu
    b.Model.task_ecu;
  Alcotest.(check bool) (label ^ ": routes") true
    (a.Model.msg_route = b.Model.msg_route);
  Alcotest.(check bool) (label ^ ": slots") true (slots a = slots b);
  Alcotest.(check bool) (label ^ ": priority order") true
    (a.Model.priority_rank = b.Model.priority_rank)

let test_mild_overrun_keeps_allocation () =
  (* a producer streams to a consumer across the bus; a 150% overrun of
     the consumer still meets every deadline where it runs, so the
     allocation in force answers the event: no solver call *)
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 4; msg_deadline = 40 } in
  let tasks =
    [
      mk_task ~messages:[ msg ] 0 "producer" 50 [ (0, 10) ];
      mk_task 1 "consumer" 50 [ (0, 10); (1, 10) ];
    ]
  in
  let problem = Model.make_problem ~arch:(arch 2) ~tasks in
  let before = placed problem [| 0; 1 |] in
  let st = Repair.create problem before in
  let r =
    repaired (Repair.repair st (Repair.Wcet_overrun { task = 1; percent = 150 }))
  in
  Alcotest.(check int) "no solver call" 0 r.solves;
  Alcotest.(check int) "nobody moves" 0 (List.length r.migrations);
  Alcotest.(check bool) "optimal" true r.optimal;
  Alcotest.(check bool) "warm keeps its meaning (not an ECU failure)" false
    r.warm;
  Alcotest.(check int) "analyzer clean" 0 r.check_violations;
  Alcotest.(check int) "sim clean" 0 r.sim_misses;
  same_allocation "answer" before r.allocation;
  same_allocation "state" before (Repair.allocation st);
  Alcotest.(check int) "wcet actually scaled" 15
    (Model.wcet_on (Repair.problem st).Model.tasks.(1) 1);
  Alcotest.(check (list string)) "the disrupted problem accepts it" []
    (List.map (Fmt.str "%a" Check.pp_violation)
       (Check.check (Repair.problem st) (Repair.allocation st)))

let test_no_stale_session_after_kept_allocation () =
  (* y (deadline 40) runs on ECU 0; x (deadline 55) may only run on
     ECUs 0 and 1 and runs on 1.  An arrival builds a live session;
     then y overruns to 40, which the allocation in force absorbs.
     When ECU 1 fails, x must join ECU 0, where it now sees 40 + 20 =
     60 > 55 unless y leaves: two migrations.  A session still
     encoding the pre-overrun WCET would seat x beside y and move only
     x, which the disrupted problem rejects. *)
  let tasks =
    [ mk_task 0 "y" 40 (everywhere 4 20); mk_task 1 "x" 55 [ (0, 20); (1, 20) ] ]
  in
  let problem = Model.make_problem ~arch:(arch 4) ~tasks in
  let st = Repair.create problem (placed problem [| 0; 1 |]) in
  let r1 =
    repaired
      (Repair.repair st
         (Repair.Task_arrival
            {
              name = "n";
              period = 100;
              deadline = 95;
              memory = 1;
              criticality = 0;
              wcets = [ (3, 10) ];
            }))
  in
  Alcotest.(check bool) "the arrival needed the solver" true (r1.solves > 0);
  let r2 =
    repaired (Repair.repair st (Repair.Wcet_overrun { task = 0; percent = 200 }))
  in
  Alcotest.(check int) "overrun kept the allocation in force" 0 r2.solves;
  Alcotest.(check int) "overrun moved nobody" 0 (List.length r2.migrations);
  let failure = Repair.Ecu_failure { ecu = 1 } in
  let oracle =
    oracle_min_migrations (Repair.allocation st)
      (Repair.apply_event (Repair.problem st) failure)
  in
  let r3 = repaired (Repair.repair st failure) in
  Alcotest.(check bool) "ECU failure is warm" true r3.warm;
  Alcotest.(check int) "analyzer clean" 0 r3.check_violations;
  Alcotest.(check int) "sim clean" 0 r3.sim_misses;
  Alcotest.(check (option int)) "migrations = oracle minimum" (Some 2) oracle;
  Alcotest.(check int) "migrations" 2 (List.length r3.migrations)

(* -- JSON answer: exact bytes ------------------------------------------ *)

(* The expected strings are the bytes of the printf emitter this answer
   had before it was built as a [Json.t], with two deliberate
   differences: [time_s] prints as the shortest decimal that reads back
   as the same float ([0.125], not [0.125000]), and a tab or carriage
   return escapes as [\t] / [\r] rather than [\u0009] / [\u000d]. *)
let test_outcome_json_golden () =
  let p =
    Model.make_problem ~arch:(arch 2)
      ~tasks:
        [
          mk_task 0 "q\"uote" 50 (everywhere 2 10);
          mk_task 1 "new\nline\ttab\rcr" 50 (everywhere 2 10);
        ]
  in
  let group kind descr = { Encode.selector = Taskalloc_sat.Lit.of_var 1; kind; descr } in
  let g0 = group (Encode.G_deadline 0) "deadline of q\"uote (d=50)" in
  let g1 = group (Encode.G_capacity 1) "back\\slash\tcap\r\n" in
  let json o = Json.to_string (Repair.outcome_to_json o) in
  Alcotest.(check string) "repaired"
    {|{"status":"repaired","degraded":true,"warm":false,"optimal":true,"migrations":[{"task":"q\"uote","from":0,"to":1,"forced":true,"because":[{"id":"deadline:0","descr":"deadline of q\"uote (d=50)"},{"id":"capacity:1","descr":"back\\slash\tcap\r\n"}]}],"sheds":[{"task":"back\\slash","criticality":2,"because":[{"id":"capacity:1","descr":"back\\slash\tcap\r\n"}]}],"placement":[["q\"uote",1],["new\nline\ttab\rcr",0]],"solves":3,"check_violations":0,"sim_misses":-1,"time_s":0.125}|}
    (json
       (Repair.Repaired
          {
            Repair.problem = p;
            allocation = placed p [| 1; 0 |];
            migrations =
              [
                {
                  Repair.m_task = "q\"uote";
                  m_from = 0;
                  m_to = 1;
                  m_forced = true;
                  m_because = [ g0; g1 ];
                };
              ];
            sheds =
              [ { Repair.s_task = "back\\slash"; s_criticality = 2; s_because = [ g1 ] } ];
            degraded = true;
            warm = false;
            optimal = true;
            solves = 3;
            check_violations = 0;
            sim_misses = -1;
            time_s = 0.125;
          }));
  Alcotest.(check string) "irreparable"
    {|{"status":"irreparable","why":"no seat for \"x\"\tleft\n","core":[{"id":"capacity:1","descr":"back\\slash\tcap\r\n"}]}|}
    (json (Repair.Irreparable { core = [ g1 ]; why = "no seat for \"x\"\tleft\n" }));
  Alcotest.(check string) "unknown" {|{"status":"unknown"}|} (json Repair.Unknown)

let suite =
  [
    Alcotest.test_case "ECU failure: warm minimal repair" `Quick
      test_ecu_failure_warm;
    Alcotest.test_case "ECU failure: warm repair over lazy encoding" `Quick
      test_ecu_failure_warm_lazy;
    Alcotest.test_case "ECU failure: warm repair with inprocessing" `Quick
      test_ecu_failure_warm_inprocessing;
    Alcotest.test_case "mild overrun: zero migrations" `Quick
      test_mild_overrun_zero_migrations;
    Alcotest.test_case "fatal overrun: irreparable at uniform criticality"
      `Quick test_fatal_overrun_irreparable;
    Alcotest.test_case "ladder sheds LO, keeps HI" `Quick
      test_ladder_sheds_lo_keeps_hi;
    Alcotest.test_case "allow_shed:false disables the ladder" `Quick
      test_no_shed_makes_it_irreparable;
    Alcotest.test_case "doomed LO task sheds itself" `Quick
      test_doomed_lo_sheds_itself;
    Alcotest.test_case "arrival places without migration" `Quick
      test_arrival_places_without_migration;
    Alcotest.test_case "bus degradation co-locates, with attribution" `Quick
      test_bus_degradation_colocates;
    Alcotest.test_case "tripped budget leaves state intact" `Quick
      test_budget_trip_leaves_state_intact;
    Alcotest.test_case "multi-event session stays consistent" `Quick
      test_multi_event_consistency;
    Alcotest.test_case "scenario files parse and resolve" `Quick
      test_scenario_parsing;
    Alcotest.test_case "mild overrun: allocation in force kept" `Quick
      test_mild_overrun_keeps_allocation;
    Alcotest.test_case "kept allocation drops a stale session" `Quick
      test_no_stale_session_after_kept_allocation;
    Alcotest.test_case "JSON answer: exact bytes" `Quick test_outcome_json_golden;
    QCheck_alcotest.to_alcotest oracle_test;
  ]
