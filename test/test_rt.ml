(* Tests for the real-time substrate: response-time analysis (eqs. 1-3),
   routing completion, and the independent feasibility checker. *)

open Taskalloc_rt

let ring2 =
  {
    Model.med_id = 0;
    med_name = "ring";
    kind = Model.Tdma;
    ecus = [ 0; 1 ];
    byte_time = 1;
    frame_overhead = 2;
  }

let arch2 =
  {
    Model.n_ecus = 2;
    media = [ ring2 ];
    mem_capacity = [| max_int; max_int |];
    gateway_service = 0;
    barred = [];
  }

let mk_task ?(memory = 1) ?(separation = []) ?(messages = []) id ~period ~wcet ~deadline =
  {
    Model.task_id = id;
    task_name = Printf.sprintf "t%d" id;
    period;
    wcets = [ (0, wcet); (1, wcet) ];
    deadline;
    memory;
    separation;
    messages;
    jitter = 0;
    blocking = 0;
    criticality = 0;
  }

(* -- fixed-point analyses, hand-checked examples ----------------------- *)

let test_task_rta_classic () =
  (* Liu&Layland-style: c=1,t=4 (high), c=2,t=6 (mid), c=3,t=12 (low).
     r_high = 1; r_mid = 2 + ceil(2/4)*1 = 3; fixed point check:
     r_low: 3 + ceil(r/4)*1 + ceil(r/6)*2; iterating: 3 -> 3+1+2=6 ->
     3+2+2=7 -> 3+2+4=9 -> 3+3+4=10 -> 3+3+4=10. *)
  let r_high = Analysis.task_response_time ~wcet:1 ~deadline:12 ~interferers:[] () in
  Alcotest.(check (option int)) "high" (Some 1) r_high;
  let r_mid =
    Analysis.task_response_time ~wcet:2 ~deadline:12 ~interferers:[ (1, 4, 0) ] ()
  in
  Alcotest.(check (option int)) "mid" (Some 3) r_mid;
  let r_low =
    Analysis.task_response_time ~wcet:3 ~deadline:12
      ~interferers:[ (1, 4, 0); (2, 6, 0) ] ()
  in
  Alcotest.(check (option int)) "low" (Some 10) r_low

let test_task_rta_miss () =
  (* overload: two tasks of c=5,t=8 interfere with c=5: diverges past 20 *)
  let r =
    Analysis.task_response_time ~wcet:5 ~deadline:20
      ~interferers:[ (5, 8, 0); (5, 8, 0) ] ()
  in
  Alcotest.(check (option int)) "miss" None r

let test_task_rta_with_jitter () =
  (* jitter inflates the interferer count: c=2 with (c=1,t=5,j=4):
     r = 2 + ceil((r+4)/5): 2 -> 2+2=4 -> 2+2=4. without jitter r = 3. *)
  let with_j =
    Analysis.task_response_time ~wcet:2 ~deadline:20 ~interferers:[ (1, 5, 4) ] ()
  in
  let without_j =
    Analysis.task_response_time ~wcet:2 ~deadline:20 ~interferers:[ (1, 5, 0) ] ()
  in
  Alcotest.(check (option int)) "with jitter" (Some 4) with_j;
  Alcotest.(check (option int)) "without" (Some 3) without_j

let test_priority_bus_rta () =
  (* rho=4 with higher-priority (rho=3,t=10): r = 4 + ceil(r/10)*3:
     4 -> 7 -> 7. *)
  let r =
    Analysis.priority_bus_response_time ~rho:4 ~limit:50 ~interferers:[ (3, 10, 0) ]
  in
  Alcotest.(check (option int)) "can rta" (Some 7) r

let test_tdma_rta () =
  (* rho=3, round=10, own slot=4: r = 3 + (4-1) + ceil(r/10)*6:
     6 -> 12 -> 18 -> 18 (the own-slot-loss term is our soundness fix
     on top of the paper's eq. 3). *)
  let r =
    Analysis.tdma_response_time ~rho:3 ~limit:60 ~round:10 ~own_slot:4 ~interferers:[]
  in
  Alcotest.(check (option int)) "tdma rta" (Some 18) r;
  (* whole-round slot: only the own-slot-loss remains *)
  let r =
    Analysis.tdma_response_time ~rho:3 ~limit:60 ~round:10 ~own_slot:10 ~interferers:[]
  in
  Alcotest.(check (option int)) "own round" (Some 12) r

let test_task_rta_blocking () =
  (* c=2, B=3, no interference: r = 5 *)
  let r = Analysis.task_response_time ~blocking:3 ~wcet:2 ~deadline:10 ~interferers:[] () in
  Alcotest.(check (option int)) "blocking adds once" (Some 5) r;
  (* with an interferer (c=1,t=4): r = 2+3 + ceil(r/4)*1: 5 -> 7 -> 7 *)
  let r =
    Analysis.task_response_time ~blocking:3 ~wcet:2 ~deadline:10
      ~interferers:[ (1, 4, 0) ] ()
  in
  Alcotest.(check (option int)) "blocking + interference" (Some 7) r

let test_ceil_div () =
  Alcotest.(check int) "0/5" 0 (Analysis.ceil_div 0 5);
  Alcotest.(check int) "1/5" 1 (Analysis.ceil_div 1 5);
  Alcotest.(check int) "5/5" 1 (Analysis.ceil_div 5 5);
  Alcotest.(check int) "6/5" 2 (Analysis.ceil_div 6 5);
  Alcotest.(check int) "-3/5" 0 (Analysis.ceil_div (-3) 5)

(* property: a successful task RTA result is a genuine fixed point of
   eq. 1 and minimal among fixed points <= deadline *)
let prop_rta_fixed_point =
  QCheck.Test.make ~count:200 ~name:"task RTA returns the least fixed point"
    QCheck.(
      make
        Gen.(
          let* wcet = int_range 1 6 in
          let* n = int_range 0 3 in
          let* interferers =
            list_size (return n) (pair (int_range 1 4) (int_range 5 15))
          in
          return (wcet, interferers)))
    (fun (wcet, interferers) ->
      let deadline = 60 in
      let interferers3 = List.map (fun (c, t) -> (c, t, 0)) interferers in
      let recurrence r =
        wcet
        + List.fold_left
            (fun acc (c, t) -> acc + (Analysis.ceil_div r t * c))
            0 interferers
      in
      match Analysis.task_response_time ~wcet ~deadline ~interferers:interferers3 () with
      | Some r ->
        recurrence r = r
        && (* no smaller fixed point *)
        not (List.exists (fun r' -> recurrence r' = r') (List.init r (fun i -> i)))
      | None ->
        (* a miss means no fixed point at or below the deadline *)
        not
          (List.exists
             (fun r' -> recurrence r' = r' && r' > 0)
             (List.init (deadline + 1) (fun i -> i))))

(* -- routing completion ---------------------------------------------------- *)

let two_ecu_problem ~separated =
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 3; msg_deadline = 40 } in
  let tasks =
    [
      mk_task 0 ~period:50 ~wcet:5 ~deadline:40
        ~separation:(if separated then [ 1 ] else [])
        ~messages:[ msg ];
      mk_task 1 ~period:50 ~wcet:5 ~deadline:40;
    ]
  in
  Model.make_problem ~arch:arch2 ~tasks

let test_routing_local () =
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 0 |] in
  Alcotest.(check bool) "local route" true (alloc.Model.msg_route.(0) = Model.Local);
  (* minimal slots: 1 tick each, nothing crosses *)
  Alcotest.(check int) "slot0" 1 (Model.slot_length alloc ~medium:0 ~ecu:0);
  Alcotest.(check int) "round" 2 (Model.round_length problem alloc 0)

let test_routing_cross () =
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Alcotest.(check bool) "bus route" true (alloc.Model.msg_route.(0) = Model.Path [ 0 ]);
  (* frame = 2 + 3 = 5 from ECU 0's station *)
  Alcotest.(check int) "sender slot" 5 (Model.slot_length alloc ~medium:0 ~ecu:0);
  Alcotest.(check int) "receiver slot" 1 (Model.slot_length alloc ~medium:0 ~ecu:1);
  Alcotest.(check int) "round" 6 (Model.round_length problem alloc 0)

(* -- checker ------------------------------------------------------------------ *)

let test_check_feasible () =
  let problem = two_ecu_problem ~separated:true in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Alcotest.(check bool) "feasible" true (Check.is_feasible problem alloc)

let test_check_separation_violation () =
  let problem = two_ecu_problem ~separated:true in
  let alloc = Routing.complete problem [| 0; 0 |] in
  let violations = Check.check problem alloc in
  Alcotest.(check bool) "separation caught" true
    (List.exists
       (function Check.Separation_violated _ -> true | _ -> false)
       violations)

let test_check_memory_violation () =
  let arch = { arch2 with Model.mem_capacity = [| 1; max_int |] } in
  let tasks =
    [
      mk_task 0 ~period:50 ~wcet:5 ~deadline:40 ~memory:2;
      mk_task 1 ~period:50 ~wcet:5 ~deadline:40;
    ]
  in
  let problem = Model.make_problem ~arch ~tasks in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Alcotest.(check bool) "memory caught" true
    (List.exists
       (function Check.Memory_exceeded { ecu = 0; used = 2; capacity = 1 } -> true | _ -> false)
       (Check.check problem alloc))

let test_check_deadline_violation () =
  (* two heavy tasks forced on one ECU overflow it *)
  let tasks =
    [
      mk_task 0 ~period:10 ~wcet:6 ~deadline:10;
      { (mk_task 1 ~period:10 ~wcet:6 ~deadline:10) with Model.wcets = [ (0, 6) ] };
      { (mk_task 2 ~period:10 ~wcet:6 ~deadline:10) with Model.wcets = [ (0, 6) ] };
    ]
  in
  let problem = Model.make_problem ~arch:arch2 ~tasks in
  let alloc = Routing.complete problem [| 0; 0; 0 |] in
  Alcotest.(check bool) "deadline caught" true
    (List.exists
       (function Check.Task_deadline_miss _ -> true | _ -> false)
       (Check.check problem alloc))

let test_check_barred () =
  let arch = { arch2 with Model.barred = [ 1 ] } in
  let tasks = [ mk_task 0 ~period:50 ~wcet:5 ~deadline:40 ] in
  let problem = Model.make_problem ~arch ~tasks in
  let alloc = Routing.complete problem [| 1 |] in
  Alcotest.(check bool) "barred caught" true
    (List.exists
       (function Check.Barred_ecu_used { task = 0; ecu = 1 } -> true | _ -> false)
       (Check.check problem alloc))

let test_check_seat_without_wcet () =
  (* t1 may only run on ECU 0; seated on ECU 1 it has no WCET there,
     so the checker must report the seat, not fail inside the timing
     analysis *)
  let tasks =
    [
      mk_task 0 ~period:50 ~wcet:5 ~deadline:40;
      { (mk_task 1 ~period:50 ~wcet:5 ~deadline:40) with Model.wcets = [ (0, 5) ] };
    ]
  in
  let problem = Model.make_problem ~arch:arch2 ~tasks in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Alcotest.(check int) "check_placement reports the seat" 1
    (List.length (Check.check_placement problem alloc));
  match Check.check problem alloc with
  | [ Check.Placement_not_allowed { task = 1; ecu = 1 } ] -> ()
  | vs ->
    Alcotest.failf "expected the placement violation alone, got [%a]"
      (Fmt.list ~sep:Fmt.semi Check.pp_violation)
      vs

let test_check_slot_too_small () =
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Hashtbl.replace alloc.Model.slots (0, 0) 2 (* frame needs 5 *);
  Alcotest.(check bool) "slot caught" true
    (List.exists
       (function Check.Slot_too_small _ -> true | _ -> false)
       (Check.check problem alloc))

let test_model_validation () =
  Alcotest.(check bool) "bad period rejected" true
    (try
       ignore
         (Model.make_problem ~arch:arch2
            ~tasks:[ { (mk_task 0 ~period:50 ~wcet:5 ~deadline:40) with Model.period = 0 } ]);
       false
     with Model.Invalid_model _ -> true)

let test_utilization () =
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 0 |] in
  (* two tasks of 5/50 = 100 permille each on ECU 0 *)
  Alcotest.(check int) "util ecu0" 200 (Model.ecu_utilization_permille problem alloc 0);
  Alcotest.(check int) "util ecu1" 0 (Model.ecu_utilization_permille problem alloc 1)

let test_medium_load () =
  let problem = two_ecu_problem ~separated:false in
  let crossing = Routing.complete problem [| 0; 1 |] in
  let local = Routing.complete problem [| 0; 0 |] in
  (* frame 5 ticks / period 50 = 100 permille *)
  Alcotest.(check int) "crossing load" 100 (Model.medium_load_permille problem crossing 0);
  Alcotest.(check int) "local load" 0 (Model.medium_load_permille problem local 0)

(* -- hierarchical message analysis ------------------------------------- *)

(* Two rings joined by gateway ECU 2: [0;1] x ring0, [3;4] x ring1. *)
let hier_problem () =
  let arch =
    {
      Model.n_ecus = 5;
      media =
        [
          { ring2 with Model.med_id = 0; ecus = [ 0; 1; 2 ] };
          { ring2 with Model.med_id = 1; med_name = "ring1"; ecus = [ 2; 3; 4 ] };
        ];
      mem_capacity = Array.make 5 max_int;
      gateway_service = 3;
      barred = [ 2 ];
    }
  in
  let msg = { Model.msg_id = 0; src = 0; dst = 1; bytes = 4; msg_deadline = 100 } in
  let mk id ~e ~wcet =
    {
      Model.task_id = id;
      task_name = Printf.sprintf "t%d" id;
      period = 120;
      wcets = [ (e, wcet) ];
      deadline = 100;
      memory = 1;
      separation = [];
      messages = (if id = 0 then [ msg ] else []);
      jitter = 0;
      blocking = 0;
      criticality = 0;
    }
  in
  Model.make_problem ~arch ~tasks:[ mk 0 ~e:0 ~wcet:5; mk 1 ~e:3 ~wcet:5 ]

let test_station_on_gateway () =
  let problem = hier_problem () in
  let alloc =
    {
      Model.task_ecu = [| 0; 3 |];
      msg_route = [| Model.Path [ 0; 1 ] |];
      slots = Hashtbl.create 4;
      priority_rank = None;
    }
  in
  let msg = (Model.all_messages problem).(0) in
  Alcotest.(check (option int)) "first hop from sender" (Some 0)
    (Model.station_on problem alloc msg 0);
  Alcotest.(check (option int)) "second hop from gateway" (Some 2)
    (Model.station_on problem alloc msg 1)

let test_multi_hop_end_to_end () =
  let problem = hier_problem () in
  let alloc = Routing.complete problem [| 0; 3 |] in
  (* frame = 2 + 4 = 6; each ring has 3 stations: round = 6 + 1 + 1 = 8
     on both rings (sender slot / gateway slot = 6).  Single message,
     no queueing: per hop r = 6 + (6-1) + ceil(r/8)*(8-6):
     11 -> 15 -> 15.  End-to-end = 15 + 15 + gateway_service 3 = 33. *)
  (match Analysis.message_end_to_end problem alloc (Model.all_messages problem).(0) with
  | Some (hops, total) ->
    Alcotest.(check int) "two hops" 2 (List.length hops);
    List.iter (fun (_, r) -> Alcotest.(check int) "hop response" 15 r) hops;
    Alcotest.(check int) "end to end" 33 total
  | None -> Alcotest.fail "should be bounded");
  Alcotest.(check bool) "feasible" true (Check.is_feasible problem alloc)

let test_higher_prio_under_rank () =
  let problem = two_ecu_problem ~separated:false in
  let base = Routing.complete problem [| 0; 1 |] in
  let a = problem.Model.tasks.(0) and b = problem.Model.tasks.(1) in
  (* equal deadlines: id order by default *)
  Alcotest.(check bool) "default: 0 over 1" true (Model.higher_prio_under base a b);
  let swapped = { base with Model.priority_rank = Some [| 1; 0 |] } in
  Alcotest.(check bool) "rank: 1 over 0" true (Model.higher_prio_under swapped b a);
  Alcotest.(check bool) "rank: not 0 over 1" false (Model.higher_prio_under swapped a b)

let test_messages_on () =
  let problem = two_ecu_problem ~separated:false in
  let crossing = Routing.complete problem [| 0; 1 |] in
  Alcotest.(check int) "one user" 1 (List.length (Analysis.messages_on problem crossing 0));
  let local = Routing.complete problem [| 0; 0 |] in
  Alcotest.(check int) "no user" 0 (List.length (Analysis.messages_on problem local 0))

(* -- simulator ----------------------------------------------------------- *)

let test_sim_single_task () =
  let tasks = [ mk_task 0 ~period:10 ~wcet:3 ~deadline:10 ] in
  let problem = Model.make_problem ~arch:arch2 ~tasks in
  let alloc = Routing.complete problem [| 0 |] in
  let trace = Sim.simulate ~horizon:40 problem alloc in
  Alcotest.(check int) "response = wcet" 3 trace.Sim.task_max_response.(0);
  Alcotest.(check int) "four activations" 4 trace.Sim.task_activations.(0);
  Alcotest.(check bool) "no misses" false (Sim.missed trace)

let test_sim_two_tasks_interference () =
  (* high: c=2,t=5,d=5; low: c=3,t=10,d=10 on one ECU.
     critical instant: low completes at 2+3 = 5 -> response 5. *)
  let tasks =
    [
      mk_task 0 ~period:5 ~wcet:2 ~deadline:5;
      mk_task 1 ~period:10 ~wcet:3 ~deadline:10;
    ]
  in
  let problem = Model.make_problem ~arch:arch2 ~tasks in
  let alloc = Routing.complete problem [| 0; 0 |] in
  let trace = Sim.simulate ~horizon:60 problem alloc in
  Alcotest.(check int) "high response" 2 trace.Sim.task_max_response.(0);
  Alcotest.(check int) "low response" 5 trace.Sim.task_max_response.(1);
  Alcotest.(check bool) "no misses" false (Sim.missed trace)

let test_sim_detects_overload () =
  (* two c=6,t=10,d=10 tasks on one ECU cannot both fit *)
  let tasks =
    [
      { (mk_task 0 ~period:10 ~wcet:6 ~deadline:10) with Model.wcets = [ (0, 6) ] };
      { (mk_task 1 ~period:10 ~wcet:6 ~deadline:10) with Model.wcets = [ (0, 6) ] };
    ]
  in
  let problem = Model.make_problem ~arch:arch2 ~tasks in
  let alloc = Routing.complete problem [| 0; 0 |] in
  let trace = Sim.simulate ~horizon:50 problem alloc in
  Alcotest.(check bool) "miss detected" true (Sim.missed trace)

let test_sim_message_delivery () =
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 1 |] in
  let trace = Sim.simulate ~horizon:200 problem alloc in
  Alcotest.(check bool) "delivered" true (trace.Sim.msg_deliveries.(0) > 0);
  Alcotest.(check bool) "no misses" false (Sim.missed trace);
  (* observed latency bounded by the analytical end-to-end latency *)
  (match Analysis.message_end_to_end problem alloc (Model.all_messages problem).(0) with
  | Some (_, bound) ->
    Alcotest.(check bool)
      (Printf.sprintf "observed %d <= bound %d" trace.Sim.msg_max_latency.(0) bound)
      true
      (trace.Sim.msg_max_latency.(0) <= bound)
  | None -> Alcotest.fail "analysis should bound the message")

let test_sim_multi_hop () =
  let problem = hier_problem () in
  let alloc = Routing.complete problem [| 0; 3 |] in
  let trace = Sim.simulate ~horizon:600 problem alloc in
  Alcotest.(check bool) "delivered" true (trace.Sim.msg_deliveries.(0) > 0);
  Alcotest.(check bool) "no misses" false (Sim.missed trace);
  (* hand-computed analytical bound is 33 (see multi-hop test above) *)
  Alcotest.(check bool) "latency within bound" true (trace.Sim.msg_max_latency.(0) <= 33)

(* property: the simulator never observes more than the analysis
   predicts, on SAT-optimal allocations of generated instances *)
let prop_sim_within_analysis =
  QCheck.Test.make ~count:6 ~name:"simulation within analytical bounds"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let problem = Taskalloc_workloads.Workloads.small ~seed ~n_ecus:2 ~n_tasks:4 () in
      match Taskalloc_core.Allocator.solve problem Taskalloc_core.Encode.Feasible with
      | Taskalloc_core.Allocator.Infeasible | Taskalloc_core.Allocator.Unknown ->
        true (* nothing to simulate *)
      | Taskalloc_core.Allocator.Solved r ->
        let alloc = r.Taskalloc_core.Allocator.allocation in
        let trace = Sim.simulate problem alloc in
        let responses = Analysis.all_task_response_times problem alloc in
        let tasks_ok =
          Array.for_all
            (fun task ->
              let i = task.Model.task_id in
              match responses.(i) with
              | Some bound -> trace.Sim.task_max_response.(i) <= bound
              | None -> false)
            problem.Model.tasks
        in
        let msgs_ok =
          Array.for_all
            (fun m ->
              match Analysis.message_end_to_end problem alloc m with
              | Some (_, bound) ->
                trace.Sim.msg_max_latency.(m.Model.msg_id) <= bound
              | None -> false)
            (Model.all_messages problem)
        in
        tasks_ok && msgs_ok && not (Sim.missed trace))

let test_sim_can_arbitration () =
  (* two senders on a CAN bus: the lower-deadline message wins arbitration.
     ECU0 sends m0 (deadline 30), ECU1 sends m1 (deadline 20): if both are
     queued, m1 goes first despite the higher msg id. *)
  let can =
    {
      Model.med_id = 0;
      med_name = "can";
      kind = Model.Priority;
      ecus = [ 0; 1; 2 ];
      byte_time = 1;
      frame_overhead = 2;
    }
  in
  let arch =
    {
      Model.n_ecus = 3;
      media = [ can ];
      mem_capacity = Array.make 3 max_int;
      gateway_service = 0;
      barred = [];
    }
  in
  let mk id ~e ~msgs =
    {
      Model.task_id = id;
      task_name = Printf.sprintf "t%d" id;
      period = 100;
      wcets = [ (e, 2) ];
      deadline = 90;
      memory = 1;
      separation = [];
      messages = msgs;
      jitter = 0;
      blocking = 0;
      criticality = 0;
    }
  in
  let m0 = { Model.msg_id = 0; src = 0; dst = 2; bytes = 4; msg_deadline = 30 } in
  let m1 = { Model.msg_id = 1; src = 1; dst = 2; bytes = 4; msg_deadline = 20 } in
  let problem =
    Model.make_problem ~arch
      ~tasks:[ mk 0 ~e:0 ~msgs:[ m0 ]; mk 1 ~e:1 ~msgs:[ m1 ]; mk 2 ~e:2 ~msgs:[] ]
  in
  let alloc = Routing.complete problem [| 0; 1; 2 |] in
  let trace = Sim.simulate ~horizon:400 problem alloc in
  Alcotest.(check bool) "no misses" false (Sim.missed trace);
  (* both tasks complete together, queueing both frames (rho = 6 each);
     the bus serves the winner starting in the completion tick, so the
     observed latencies are one below the analytical bound *)
  Alcotest.(check int) "winner latency" 5 trace.Sim.msg_max_latency.(1);
  Alcotest.(check int) "loser latency" 11 trace.Sim.msg_max_latency.(0);
  (* the analysis agrees: m0's bound includes one interference of m1 *)
  (match Analysis.message_end_to_end problem alloc m0 with
  | Some (_, b) -> Alcotest.(check int) "analysis m0" 12 b
  | None -> Alcotest.fail "bounded");
  match Analysis.message_end_to_end problem alloc m1 with
  | Some (_, b) -> Alcotest.(check int) "analysis m1" 6 b
  | None -> Alcotest.fail "bounded"

let test_sim_slot_overrun_detected () =
  (* sabotage the slots so a frame cannot fit its slot: the simulator
     must flag the overrun rather than silently transmit *)
  let problem = two_ecu_problem ~separated:false in
  let alloc = Routing.complete problem [| 0; 1 |] in
  Hashtbl.replace alloc.Model.slots (0, 0) 2 (* frame needs 5 *);
  let trace = Sim.simulate ~horizon:300 problem alloc in
  (* the frame never fits the 2-tick window: it starves, and the
     simulator must say so *)
  Alcotest.(check int) "never delivered" 0 trace.Sim.msg_deliveries.(0);
  Alcotest.(check bool) "starvation flagged" true (Sim.missed trace);
  (* and the independent checker flags the same allocation *)
  Alcotest.(check bool) "checker agrees" false (Check.is_feasible problem alloc)

let test_sim_gateway_service_delay () =
  (* gateway service cost must appear in the observed latency *)
  let problem = hier_problem () in
  let alloc = Routing.complete problem [| 0; 3 |] in
  let trace = Sim.simulate ~horizon:600 problem alloc in
  (* each hop takes at least rho = 6 plus the 3-tick gateway service *)
  Alcotest.(check bool) "latency >= 2*rho + service" true
    (trace.Sim.msg_max_latency.(0) >= (2 * 6) + 3)

(* property: phased (offset) releases never exceed the critical-instant
   analysis either *)
let prop_sim_phases_within_bounds =
  QCheck.Test.make ~count:6 ~name:"phased simulations within analytical bounds"
    QCheck.(make Gen.(int_range 1 1000))
    (fun seed ->
      let problem = Taskalloc_workloads.Workloads.small ~seed ~n_ecus:2 ~n_tasks:4 () in
      match Taskalloc_core.Allocator.solve problem Taskalloc_core.Encode.Feasible with
      | Taskalloc_core.Allocator.Infeasible | Taskalloc_core.Allocator.Unknown ->
        true
      | Taskalloc_core.Allocator.Solved r ->
        let alloc = r.Taskalloc_core.Allocator.allocation in
        let responses = Analysis.all_task_response_times problem alloc in
        let rng = Taskalloc_workloads.Rng.create seed in
        List.for_all
          (fun _ ->
            let offsets =
              Array.map
                (fun t -> Taskalloc_workloads.Rng.int rng t.Model.period)
                problem.Model.tasks
            in
            let trace = Sim.simulate ~offsets problem alloc in
            (not (Sim.missed trace))
            && Array.for_all
                 (fun task ->
                   let i = task.Model.task_id in
                   match responses.(i) with
                   | Some bound -> trace.Sim.task_max_response.(i) <= bound
                   | None -> false)
                 problem.Model.tasks)
          [ 1; 2; 3 ])

(* -- problem files ------------------------------------------------------------ *)

let sample_prob = {|
# demo system
ecus 3
memory 0 16
gateway_service 1
medium ring tdma 1 2 0 1
medium can priority 1 5 1 2

task sensor 100 60 4
  wcet 0 12
  wcet 1 14
  separate monitor
  message filter 4 90

task filter 100 80 6
  wcet 1 9
  wcet 2 10

task monitor 50 40 2
  wcet 0 5
  wcet 1 5
  wcet 2 5
|}

let test_problem_parse () =
  let problem = Problem_file.parse_string sample_prob in
  Alcotest.(check int) "3 tasks" 3 (Array.length problem.Model.tasks);
  Alcotest.(check int) "3 ecus" 3 problem.Model.arch.Model.n_ecus;
  Alcotest.(check int) "2 media" 2 (List.length problem.Model.arch.Model.media);
  Alcotest.(check int) "gateway service" 1 problem.Model.arch.Model.gateway_service;
  Alcotest.(check int) "memory cap" 16 problem.Model.arch.Model.mem_capacity.(0);
  Alcotest.(check bool) "cap 1 unlimited" true
    (problem.Model.arch.Model.mem_capacity.(1) = max_int);
  let sensor = problem.Model.tasks.(0) in
  Alcotest.(check string) "name" "sensor" sensor.Model.task_name;
  Alcotest.(check (list int)) "separation resolved" [ 2 ] sensor.Model.separation;
  (match sensor.Model.messages with
  | [ m ] ->
    Alcotest.(check int) "dst resolved" 1 m.Model.dst;
    Alcotest.(check int) "bytes" 4 m.Model.bytes
  | _ -> Alcotest.fail "one message expected");
  (match problem.Model.arch.Model.media with
  | [ ring; can ] ->
    Alcotest.(check bool) "ring tdma" true (ring.Model.kind = Model.Tdma);
    Alcotest.(check bool) "can priority" true (can.Model.kind = Model.Priority);
    Alcotest.(check int) "can overhead" 5 can.Model.frame_overhead
  | _ -> Alcotest.fail "two media expected")

let test_problem_roundtrip () =
  let problem = Problem_file.parse_string sample_prob in
  let reparsed = Problem_file.parse_string (Problem_file.to_string problem) in
  Alcotest.(check bool) "tasks equal" true (problem.Model.tasks = reparsed.Model.tasks);
  Alcotest.(check bool) "media equal" true
    (problem.Model.arch.Model.media = reparsed.Model.arch.Model.media);
  Alcotest.(check bool) "memory equal" true
    (problem.Model.arch.Model.mem_capacity = reparsed.Model.arch.Model.mem_capacity)

let test_problem_roundtrip_generated () =
  (* every named generator output survives a print/parse cycle *)
  List.iter
    (fun problem ->
      let reparsed = Problem_file.parse_string (Problem_file.to_string problem) in
      Alcotest.(check bool) "tasks equal" true (problem.Model.tasks = reparsed.Model.tasks);
      Alcotest.(check bool) "barred equal" true
        (problem.Model.arch.Model.barred = reparsed.Model.arch.Model.barred))
    [
      Taskalloc_workloads.Workloads.small ~seed:3 ();
      Taskalloc_workloads.Workloads.small_can ~seed:4 ();
      Taskalloc_workloads.Workloads.small_hierarchical ~seed:5 ~n_tasks:6
        Taskalloc_workloads.Workloads.A;
    ]

let test_problem_parse_errors () =
  let fails s =
    match Problem_file.parse_string s with
    | exception Problem_file.Parse_error _ -> true
    | exception Model.Invalid_model _ -> true
    | _ -> false
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "no media" true (fails "ecus 2
");
  Alcotest.(check bool) "bad directive" true (fails "ecus 2
medium m tdma 1 1 0 1
frobnicate
");
  Alcotest.(check bool) "wcet outside task" true
    (fails "ecus 2
medium m tdma 1 1 0 1
wcet 0 5
");
  Alcotest.(check bool) "unknown task ref" true
    (fails "ecus 2
medium m tdma 1 1 0 1
task a 10 8 1
  wcet 0 2
  separate ghost
");
  Alcotest.(check bool) "bad kind" true (fails "ecus 2
medium m ethernet 1 1 0 1
");
  Alcotest.(check bool) "bad int" true (fails "ecus two
medium m tdma 1 1 0 1
")

(* -- metamorphic: the RTA fixed points commute with time scaling -------- *)

let test_rta_scaling_metamorphic () =
  (* ceil((k*r + k*J) / (k*T)) = ceil((r + J) / T), so scaling every
     time quantity by k must scale the eq. 1 fixed point by exactly k
     and preserve schedulability *)
  let k = 4 in
  let scale = List.map (fun (c, t, j) -> (k * c, k * t, k * j)) in
  List.iter
    (fun (blocking, wcet, deadline, interferers) ->
      let r = Analysis.task_response_time ~blocking ~wcet ~deadline ~interferers () in
      let r' =
        Analysis.task_response_time ~blocking:(k * blocking) ~wcet:(k * wcet)
          ~deadline:(k * deadline) ~interferers:(scale interferers) ()
      in
      match (r, r') with
      | Some r, Some r' -> Alcotest.(check int) "k-scaled response" (k * r) r'
      | None, None -> ()
      | _ -> Alcotest.fail "schedulability changed under scaling")
    [
      (0, 1, 12, []);
      (0, 2, 12, [ (1, 4, 0) ]);
      (0, 2, 20, [ (1, 5, 4) ]);
      (3, 2, 10, [ (1, 5, 0) ]);
      (0, 5, 20, [ (2, 6, 1); (3, 9, 2) ]);
      (0, 5, 19, [ (2, 6, 0); (3, 9, 0) ]);
      (0, 5, 9, [ (2, 6, 0); (3, 9, 0) ]);
    ]

let test_bus_rta_scaling_metamorphic () =
  let k = 3 in
  let scale = List.map (fun (c, t, j) -> (k * c, k * t, k * j)) in
  List.iter
    (fun (rho, limit, interferers) ->
      let r = Analysis.priority_bus_response_time ~rho ~limit ~interferers in
      let r' =
        Analysis.priority_bus_response_time ~rho:(k * rho) ~limit:(k * limit)
          ~interferers:(scale interferers)
      in
      match (r, r') with
      | Some r, Some r' -> Alcotest.(check int) "k-scaled bus response" (k * r) r'
      | None, None -> ()
      | _ -> Alcotest.fail "schedulability changed under scaling")
    [ (4, 50, [ (3, 10, 0) ]); (4, 50, [ (3, 10, 2); (2, 7, 1) ]); (4, 10, [ (3, 5, 0) ]) ];
  (* eq. 3 contains an absolute (own_slot - 1) tick constant that does
     not scale — the scaled map dominates k times the original by k-1
     per iteration — so the fixed point commutes only up to a bounded
     distortion: k*r <= r' <= k*(r + round) *)
  List.iter
    (fun (rho, limit, round, own_slot, interferers) ->
      let r = Analysis.tdma_response_time ~rho ~limit ~round ~own_slot ~interferers in
      let r' =
        Analysis.tdma_response_time ~rho:(k * rho) ~limit:(k * limit + (k * round))
          ~round:(k * round) ~own_slot:(k * own_slot) ~interferers:(scale interferers)
      in
      match (r, r') with
      | Some r, Some r' ->
        Alcotest.(check bool)
          (Printf.sprintf "tdma response %d within [%d, %d]" r' (k * r) (k * (r + round)))
          true
          (k * r <= r' && r' <= k * (r + round))
      | None, None -> ()
      | _ -> Alcotest.fail "schedulability changed under scaling")
    [ (3, 60, 10, 4, []); (3, 60, 10, 10, []); (4, 80, 12, 5, [ (2, 20, 0) ]) ]

let test_check_scaling_metamorphic () =
  (* scaling every time quantity of a problem must not flip the
     checker's verdict for the correspondingly completed allocation *)
  let k = 5 in
  let scale_problem problem =
    let arch = problem.Model.arch in
    let arch' =
      {
        arch with
        Model.media =
          List.map
            (fun m ->
              {
                m with
                Model.byte_time = k * m.Model.byte_time;
                frame_overhead = k * m.Model.frame_overhead;
              })
            arch.Model.media;
        gateway_service = k * arch.Model.gateway_service;
      }
    in
    let tasks =
      Array.to_list problem.Model.tasks
      |> List.map (fun t ->
             {
               t with
               Model.period = k * t.Model.period;
               deadline = k * t.Model.deadline;
               jitter = k * t.Model.jitter;
               blocking = k * t.Model.blocking;
               wcets = List.map (fun (e, w) -> (e, k * w)) t.Model.wcets;
               messages =
                 List.map
                   (fun m -> { m with Model.msg_deadline = k * m.Model.msg_deadline })
                   t.Model.messages;
             })
    in
    Model.make_problem ~arch:arch' ~tasks
  in
  List.iter
    (fun placement ->
      let problem = two_ecu_problem ~separated:false in
      let scaled = scale_problem problem in
      let verdict p = Check.is_feasible p (Routing.complete p placement) in
      Alcotest.(check bool)
        (Printf.sprintf "placement [%d;%d] verdict invariant" placement.(0) placement.(1))
        (verdict problem) (verdict scaled))
    [ [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |]; [| 1; 1 |] ]

let suite =
  [
    Alcotest.test_case "task rta classic" `Quick test_task_rta_classic;
    Alcotest.test_case "task rta miss" `Quick test_task_rta_miss;
    Alcotest.test_case "task rta jitter" `Quick test_task_rta_with_jitter;
    Alcotest.test_case "priority bus rta" `Quick test_priority_bus_rta;
    Alcotest.test_case "tdma rta" `Quick test_tdma_rta;
    Alcotest.test_case "task rta blocking" `Quick test_task_rta_blocking;
    Alcotest.test_case "ceil_div" `Quick test_ceil_div;
    Alcotest.test_case "routing local" `Quick test_routing_local;
    Alcotest.test_case "routing cross" `Quick test_routing_cross;
    Alcotest.test_case "check feasible" `Quick test_check_feasible;
    Alcotest.test_case "check separation" `Quick test_check_separation_violation;
    Alcotest.test_case "check memory" `Quick test_check_memory_violation;
    Alcotest.test_case "check deadline" `Quick test_check_deadline_violation;
    Alcotest.test_case "check barred" `Quick test_check_barred;
    Alcotest.test_case "check seat without WCET" `Quick test_check_seat_without_wcet;
    Alcotest.test_case "check slot" `Quick test_check_slot_too_small;
    Alcotest.test_case "model validation" `Quick test_model_validation;
    Alcotest.test_case "utilization" `Quick test_utilization;
    Alcotest.test_case "medium load" `Quick test_medium_load;
    Alcotest.test_case "sim single task" `Quick test_sim_single_task;
    Alcotest.test_case "sim interference" `Quick test_sim_two_tasks_interference;
    Alcotest.test_case "sim overload detected" `Quick test_sim_detects_overload;
    Alcotest.test_case "sim message delivery" `Quick test_sim_message_delivery;
    Alcotest.test_case "sim multi hop" `Quick test_sim_multi_hop;
    QCheck_alcotest.to_alcotest prop_sim_within_analysis;
    QCheck_alcotest.to_alcotest prop_sim_phases_within_bounds;
    Alcotest.test_case "sim can arbitration" `Quick test_sim_can_arbitration;
    Alcotest.test_case "sim slot overrun detected" `Quick test_sim_slot_overrun_detected;
    Alcotest.test_case "sim gateway service delay" `Quick test_sim_gateway_service_delay;
    Alcotest.test_case "station on gateway" `Quick test_station_on_gateway;
    Alcotest.test_case "multi-hop end to end" `Quick test_multi_hop_end_to_end;
    Alcotest.test_case "higher prio under rank" `Quick test_higher_prio_under_rank;
    Alcotest.test_case "messages_on" `Quick test_messages_on;
    Alcotest.test_case "problem parse" `Quick test_problem_parse;
    Alcotest.test_case "problem roundtrip" `Quick test_problem_roundtrip;
    Alcotest.test_case "problem roundtrip generated" `Quick test_problem_roundtrip_generated;
    Alcotest.test_case "problem parse errors" `Quick test_problem_parse_errors;
    QCheck_alcotest.to_alcotest prop_rta_fixed_point;
    Alcotest.test_case "rta scaling metamorphic" `Quick test_rta_scaling_metamorphic;
    Alcotest.test_case "bus rta scaling metamorphic" `Quick test_bus_rta_scaling_metamorphic;
    Alcotest.test_case "check scaling metamorphic" `Quick test_check_scaling_metamorphic;
  ]
