(* Independent feasibility checker.

   Given a problem and a full allocation (placement, routes, TDMA
   slots), re-derive schedulability from first principles — the
   fixed-point analyses of {!Analysis} — and verify every constraint
   class of §2-§4.  The SAT encoder never feeds data into this module;
   property tests cross-validate the two. *)

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

let pp_violation ppf = function
  | Placement_not_allowed { task; ecu } ->
    Fmt.pf ppf "task %d placed on forbidden ECU %d" task ecu
  | Separation_violated { task_a; task_b; ecu } ->
    Fmt.pf ppf "redundant tasks %d and %d share ECU %d" task_a task_b ecu
  | Memory_exceeded { ecu; used; capacity } ->
    Fmt.pf ppf "ECU %d memory %d exceeds capacity %d" ecu used capacity
  | Barred_ecu_used { task; ecu } ->
    Fmt.pf ppf "task %d placed on gateway-only ECU %d" task ecu
  | Task_deadline_miss { task; response; deadline } ->
    Fmt.pf ppf "task %d misses deadline %d (response %a)" task deadline
      Fmt.(option ~none:(any "unbounded") int)
      response
  | Invalid_route { msg; reason } -> Fmt.pf ppf "message %d route invalid: %s" msg reason
  | Message_deadline_miss { msg; latency; deadline } ->
    Fmt.pf ppf "message %d misses deadline %d (latency %a)" msg deadline
      Fmt.(option ~none:(any "unbounded") int)
      latency
  | Slot_too_small { medium; ecu; slot; needed } ->
    Fmt.pf ppf "medium %d: slot of ECU %d is %d but a frame needs %d" medium ecu slot
      needed

let check_placement problem alloc =
  let violations = ref [] in
  Array.iter
    (fun task ->
      let e = alloc.task_ecu.(task.task_id) in
      if not (List.mem_assoc e task.wcets) then
        violations := Placement_not_allowed { task = task.task_id; ecu = e } :: !violations;
      if List.mem e problem.arch.barred then
        violations := Barred_ecu_used { task = task.task_id; ecu = e } :: !violations;
      List.iter
        (fun j ->
          if alloc.task_ecu.(j) = e then
            violations :=
              Separation_violated { task_a = task.task_id; task_b = j; ecu = e }
              :: !violations)
        task.separation)
    problem.tasks;
  (* memory capacities *)
  for e = 0 to problem.arch.n_ecus - 1 do
    let cap = problem.arch.mem_capacity.(e) in
    if cap < max_int then begin
      let used =
        Array.fold_left
          (fun acc t -> if alloc.task_ecu.(t.task_id) = e then acc + t.memory else acc)
          0 problem.tasks
      in
      if used > cap then
        violations := Memory_exceeded { ecu = e; used; capacity = cap } :: !violations
    end
  done;
  !violations

let check_tasks problem alloc =
  let responses = Analysis.all_task_response_times problem alloc in
  Array.to_list
    (Array.mapi
       (fun i r ->
         let task = problem.tasks.(i) in
         (* the response measured from release must fit within the
            deadline minus the release jitter *)
         match r with
         | Some r when r + task.jitter <= task.deadline -> []
         | _ ->
           [ Task_deadline_miss
               { task = i; response = r; deadline = task.deadline } ])
       responses)
  |> List.concat

let check_routes problem alloc =
  let open Taskalloc_topology in
  let msgs = all_messages problem in
  Array.to_list msgs
  |> List.concat_map (fun msg ->
         let src_ecu = alloc.task_ecu.(msg.src)
         and dst_ecu = alloc.task_ecu.(msg.dst) in
         match alloc.msg_route.(msg.msg_id) with
         | Local ->
           if src_ecu <> dst_ecu then
             [ Invalid_route
                 { msg = msg.msg_id; reason = "local route but endpoints differ" } ]
           else []
         | Path path ->
           if src_ecu = dst_ecu then
             [ Invalid_route
                 { msg = msg.msg_id; reason = "path route but endpoints co-located" } ]
           else if not (Topology.valid_path problem.topology path) then
             [ Invalid_route { msg = msg.msg_id; reason = "not a simple media path" } ]
           else begin
             let senders, receivers = Topology.endpoint_ecus problem.topology path in
             let errs = ref [] in
             if not (List.mem src_ecu senders) then
               errs :=
                 Invalid_route
                   { msg = msg.msg_id; reason = "sender not on first medium (v(h))" }
                 :: !errs;
             if not (List.mem dst_ecu receivers) then
               errs :=
                 Invalid_route
                   { msg = msg.msg_id; reason = "receiver not on last medium (v(h))" }
                 :: !errs;
             !errs
           end)

let check_slots problem alloc =
  (* every station emitting a frame on a TDMA medium needs a slot at
     least as long as its largest frame *)
  let msgs = all_messages problem in
  List.concat_map
    (fun medium ->
      match medium.kind with
      | Priority -> []
      | Tdma ->
        Array.to_list msgs
        |> List.concat_map (fun msg ->
               match alloc.msg_route.(msg.msg_id) with
               | Path path when List.mem medium.med_id path ->
                 (match station_on problem alloc msg medium.med_id with
                 | Some station ->
                   let slot = slot_length alloc ~medium:medium.med_id ~ecu:station in
                   let needed = frame_time medium msg in
                   if slot < needed then
                     [ Slot_too_small
                         { medium = medium.med_id; ecu = station; slot; needed } ]
                   else []
                 | None -> [])
               | _ -> []))
    problem.arch.media

let check_messages problem alloc =
  let msgs = all_messages problem in
  Array.to_list msgs
  |> List.concat_map (fun msg ->
         match Analysis.message_end_to_end problem alloc msg with
         | Some (_, latency) when latency <= msg.msg_deadline -> []
         | Some (_, latency) ->
           [ Message_deadline_miss
               { msg = msg.msg_id; latency = Some latency; deadline = msg.msg_deadline } ]
         | None ->
           [ Message_deadline_miss
               { msg = msg.msg_id; latency = None; deadline = msg.msg_deadline } ])

(* Full check.  Returns all violations (empty = feasible).  A task
   seated outside its WCET list has no WCET there for the timing
   analyses to read, so such an allocation gets its placement
   violations alone. *)
let check problem alloc =
  let placement = check_placement problem alloc in
  if
    List.exists
      (function Placement_not_allowed _ -> true | _ -> false)
      placement
  then placement
  else
    placement
    @ check_routes problem alloc
    @ check_tasks problem alloc
    @ check_slots problem alloc
    @ check_messages problem alloc

let is_feasible problem alloc = check problem alloc = []

let pp_report ppf violations =
  match violations with
  | [] -> Fmt.pf ppf "feasible"
  | vs -> Fmt.pf ppf "@[<v>%a@]" (Fmt.list ~sep:Fmt.cut pp_violation) vs
