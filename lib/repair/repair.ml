(* Online reallocation under disruption (ROADMAP item 4).

   The repair engine keeps one grouped-encoding session alive across
   disruptions (the machinery of [Explain.Session]), built on first
   need, and treats every repair as an assumption-only optimization on
   it:

   - first of all, the allocation in force is validated against the
     disrupted problem ([Check], then [Sim]); when it passes, nobody
     moves and no solver runs.  The live session survives such an
     answer only for an ECU failure (its forbids join the standing
     assumptions); any other event changed the encoded arithmetic, so
     the session is dropped and rebuilt when next needed;

   - the *migration objective* is a sum of indicator bits, one per
     task whose pre-disruption seat is still admissible: the bit is 1
     exactly when the task's placement selector for its old seat is
     false.  [Opt.minimize ~mode:Incremental ~persist_bounds:false]
     binary-searches that sum under the group selectors (and any
     standing event assumptions), so every learnt clause keeps pruning
     later probes while nothing event-specific is ever asserted
     permanently — the session stays sound for the next disruption;

   - ECU failures that doom no task never re-encode: the failure is
     the standing assumption set {not sel(t, failed) | t}, so the warm
     path costs zero encodes (the >= 2x win of BENCH_repair);

   - when the disrupted problem is infeasible, the degradation ladder
     sheds tasks of criticality below the highest level present —
     lowest criticality first, highest utilization within a level (the
     fewest sheds that relieve the bottleneck) — re-encoding the
     reduced problem per rung until the HI tasks fit;

   - attribution reuses the explainer verbatim: pinning a migrated
     task back on its old seat and shrinking the failed-assumption
     core yields a MUS *under the pin*, i.e. the constraint groups
     that forced that migration.

   State commits are all-or-nothing: [Unknown] (budget tripped) and
   [Irreparable] leave problem, allocation and standing assumptions
   untouched (a session first built on the way, for the pre-event
   problem, is kept). *)

open Taskalloc_sat
open Taskalloc_pb
open Taskalloc_bv
open Taskalloc_rt
open Taskalloc_core
module Explain = Taskalloc_explain.Explain
module Session = Explain.Session
module Opt = Taskalloc_opt.Opt
module Budget = Taskalloc_sat.Budget
module Obs = Taskalloc_obs.Obs
module Json = Taskalloc_obs.Json

type event =
  | Ecu_failure of { ecu : int }
  | Wcet_overrun of { task : int; percent : int }
  | Task_arrival of {
      name : string;
      period : int;
      deadline : int;
      memory : int;
      criticality : int;
      wcets : (int * int) list;
    }
  | Bus_degradation of { medium : int; percent : int }

exception Invalid_event of string

let invalid_event fmt = Fmt.kstr (fun s -> raise (Invalid_event s)) fmt

let pp_event problem ppf = function
  | Ecu_failure { ecu } -> Fmt.pf ppf "ECU%d fails" ecu
  | Wcet_overrun { task; percent } ->
    let name =
      if task >= 0 && task < Array.length problem.Model.tasks then
        problem.Model.tasks.(task).Model.task_name
      else string_of_int task
    in
    Fmt.pf ppf "WCET of %s overruns to %d%%" name percent
  | Task_arrival { name; period; deadline; _ } ->
    Fmt.pf ppf "task %s arrives (t=%d d=%d)" name period deadline
  | Bus_degradation { medium; percent } ->
    let mname =
      match List.nth_opt problem.Model.arch.Model.media medium with
      | Some m -> m.Model.med_name
      | None -> string_of_int medium
    in
    Fmt.pf ppf "bus %s degrades to %d%%" mname percent

(* round [v * percent / 100] up, never below 1 *)
let scale_pct v percent = max 1 (((v * percent) + 99) / 100)

(* -- model-level event application -------------------------------------- *)

(* The raw transformation may leave tasks without any admissible seat
   (all WCET entries barred or scaled beyond the deadline); those are
   detected as doomed and removed by [restrict] before the problem is
   re-validated, because a seatless task has no allocation at all. *)
let disrupt (p : Model.problem) event =
  let arch = p.Model.arch in
  let tasks = Array.copy p.Model.tasks in
  match event with
  | Ecu_failure { ecu } ->
    if ecu < 0 || ecu >= arch.Model.n_ecus then invalid_event "unknown ECU %d" ecu;
    if List.mem ecu arch.Model.barred then
      invalid_event "ECU %d is already failed or barred" ecu;
    ( { arch with Model.barred = List.sort_uniq Int.compare (ecu :: arch.Model.barred) },
      tasks )
  | Wcet_overrun { task; percent } ->
    if task < 0 || task >= Array.length tasks then invalid_event "unknown task %d" task;
    if percent <= 0 then invalid_event "WCET overrun factor must be positive";
    let tk = tasks.(task) in
    let wcets =
      List.filter_map
        (fun (e, w) ->
          let w' = scale_pct w percent in
          if w' > tk.Model.deadline then None else Some (e, w'))
        tk.Model.wcets
    in
    tasks.(task) <- { tk with Model.wcets };
    (arch, tasks)
  | Task_arrival { name; period; deadline; memory; criticality; wcets } ->
    if period <= 0 then invalid_event "arrival %s: period must be positive" name;
    if deadline <= 0 then invalid_event "arrival %s: deadline must be positive" name;
    if memory < 0 then invalid_event "arrival %s: negative memory" name;
    if criticality < 0 then invalid_event "arrival %s: negative criticality" name;
    if Array.exists (fun t -> t.Model.task_name = name) tasks then
      invalid_event "arrival %s: a task of that name is already running" name;
    let wcets =
      List.filter_map
        (fun (e, w) ->
          if e < 0 || e >= arch.Model.n_ecus then
            invalid_event "arrival %s: unknown ECU %d" name e;
          if w <= 0 then invalid_event "arrival %s: WCET must be positive" name;
          if w > deadline then None else Some (e, w))
        wcets
    in
    let tk =
      {
        Model.task_id = Array.length tasks;
        task_name = name;
        period;
        wcets;
        deadline;
        memory;
        separation = [];
        messages = [];
        jitter = 0;
        blocking = 0;
        criticality;
      }
    in
    (arch, Array.append tasks [| tk |])
  | Bus_degradation { medium; percent } ->
    if percent <= 0 then invalid_event "bus degradation factor must be positive";
    if medium < 0 || medium >= List.length arch.Model.media then
      invalid_event "unknown medium %d" medium;
    let media =
      List.map
        (fun (m : Model.medium) ->
          if m.Model.med_id = medium then
            { m with Model.byte_time = scale_pct m.Model.byte_time percent }
          else m)
        arch.Model.media
    in
    ({ arch with Model.media }, tasks)

(* a task is doomed when no WCET entry survives outside the barred set *)
let doomed_of arch tasks =
  Array.to_list tasks
  |> List.filter_map (fun tk ->
         if
           List.exists
             (fun (e, _) -> not (List.mem e arch.Model.barred))
             tk.Model.wcets
         then None
         else Some tk.Model.task_id)

(* Rebuild a valid problem from the surviving tasks, renumbered
   densely.  Separation peers and messages to dropped tasks vanish;
   message ids are re-assigned in task order (keeping them dense).
   Returns the problem and [kept]: new id -> raw id. *)
let restrict ~arch (raw : Model.task array) ~drop =
  let n = Array.length raw in
  let kept =
    Array.of_list
      (List.filter (fun i -> not (List.mem i drop)) (List.init n Fun.id))
  in
  let new_id = Array.make n (-1) in
  Array.iteri (fun ni oi -> new_id.(oi) <- ni) kept;
  let next_msg = ref 0 in
  let tasks =
    Array.to_list
      (Array.mapi
         (fun ni oi ->
           let tk = raw.(oi) in
           {
             tk with
             Model.task_id = ni;
             separation =
               List.filter_map
                 (fun p -> if new_id.(p) >= 0 then Some new_id.(p) else None)
                 tk.Model.separation;
             messages =
               List.filter_map
                 (fun (m : Model.message) ->
                   if new_id.(m.Model.dst) >= 0 then begin
                     let id = !next_msg in
                     incr next_msg;
                     Some { m with Model.msg_id = id; src = ni; dst = new_id.(m.Model.dst) }
                   end
                   else None)
                 tk.Model.messages;
           })
         kept)
  in
  (Model.make_problem ~arch ~tasks, kept)

type disrupted = {
  d_problem : Model.problem;
  d_kept : int array;
  d_doomed : int list;
}

let apply_event problem event =
  let arch, raw = disrupt problem event in
  let doomed = doomed_of arch raw in
  let d_problem, d_kept = restrict ~arch raw ~drop:doomed in
  { d_problem; d_kept; d_doomed = doomed }

(* -- results ------------------------------------------------------------ *)

type migration = {
  m_task : string;
  m_from : int;
  m_to : int;
  m_forced : bool;
  m_because : Encode.group list;
}

type shed = {
  s_task : string;
  s_criticality : int;
  s_because : Encode.group list;
}

type repair = {
  problem : Model.problem;
  allocation : Model.allocation;
  migrations : migration list;
  sheds : shed list;
  degraded : bool;
  warm : bool;
  optimal : bool;
  solves : int;
  check_violations : int;
  sim_misses : int;
  time_s : float;
}

type outcome =
  | Repaired of repair
  | Irreparable of { core : Encode.group list; why : string }
  | Unknown

let pp_outcome _problem ppf = function
  | Unknown -> Fmt.pf ppf "UNKNOWN: budget exhausted; keeping the old allocation"
  | Irreparable { core; why } ->
    Fmt.pf ppf "IRREPARABLE: %s" why;
    List.iter (fun g -> Fmt.pf ppf "@\n  - %s" g.Encode.descr) core
  | Repaired r ->
    Fmt.pf ppf "REPAIRED%s%s: %d migration%s, %d shed%s (%d solves, %.2fs%s)"
      (if r.degraded then " DEGRADED" else "")
      (if r.warm then " [warm]" else "")
      (List.length r.migrations)
      (if List.length r.migrations = 1 then "" else "s")
      (List.length r.sheds)
      (if List.length r.sheds = 1 then "" else "s")
      r.solves r.time_s
      (if r.optimal then "" else ", not proven minimal");
    List.iter
      (fun m ->
        Fmt.pf ppf "@\n  move %s: ECU%d -> ECU%d%s" m.m_task m.m_from m.m_to
          (if m.m_forced then " (forced)" else "");
        List.iter (fun g -> Fmt.pf ppf "@\n    because %s" g.Encode.descr) m.m_because)
      r.migrations;
    List.iter
      (fun s ->
        Fmt.pf ppf "@\n  shed %s (criticality %d)" s.s_task s.s_criticality;
        List.iter (fun g -> Fmt.pf ppf "@\n    because %s" g.Encode.descr) s.s_because)
      r.sheds;
    if r.sim_misses >= 0 then
      Fmt.pf ppf "@\n  validated: %d analyzer violations, %d simulated misses"
        r.check_violations r.sim_misses

let outcome_to_json = function
  | Unknown -> Json.Obj [ ("status", Json.Str "unknown") ]
  | Irreparable { core; why } ->
    Json.Obj
      [
        ("status", Json.Str "irreparable");
        ("why", Json.Str why);
        ("core", Explain.groups_to_json core);
      ]
  | Repaired r ->
    let migration m =
      Json.Obj
        [
          ("task", Json.Str m.m_task);
          ("from", Json.Int m.m_from);
          ("to", Json.Int m.m_to);
          ("forced", Json.Bool m.m_forced);
          ("because", Explain.groups_to_json m.m_because);
        ]
    in
    let shed s =
      Json.Obj
        [
          ("task", Json.Str s.s_task);
          ("criticality", Json.Int s.s_criticality);
          ("because", Explain.groups_to_json s.s_because);
        ]
    in
    Json.Obj
      [
        ("status", Json.Str "repaired");
        ("degraded", Json.Bool r.degraded);
        ("warm", Json.Bool r.warm);
        ("optimal", Json.Bool r.optimal);
        ("migrations", Json.List (List.map migration r.migrations));
        ("sheds", Json.List (List.map shed r.sheds));
        ("placement", Explain.placement_to_json r.problem r.allocation);
        ("solves", Json.Int r.solves);
        ("check_violations", Json.Int r.check_violations);
        ("sim_misses", Json.Int r.sim_misses);
        ("time_s", Json.Float r.time_s);
      ]

(* -- online state ------------------------------------------------------- *)

type t = {
  mutable cur : Model.problem;
  mutable alloc : Model.allocation;
  mutable sess : Session.t option;
      (* grouped session, built on first need; when present it encodes
         a problem that [sess_extra] turns into [cur] *)
  mutable sess_extra : Lit.t list;
      (* standing assumptions translating events applied since [sess]
         was last built (only ECU failures accumulate here) *)
  mutable sheds : string list; (* newest first *)
  options : Encode.options option;
}

let create ?options problem allocation =
  if Array.length allocation.Model.task_ecu <> Array.length problem.Model.tasks
  then Model.invalid "repair: allocation does not match the problem";
  { cur = problem; alloc = allocation; sess = None; sess_extra = []; sheds = []; options }

(* the live session and its standing assumptions, encoding [cur] on
   first use *)
let live_session t =
  match t.sess with
  | Some s -> (s, t.sess_extra)
  | None ->
    let s =
      Obs.span "repair.encode" (fun () -> Session.create ?options:t.options t.cur)
    in
    t.sess <- Some s;
    t.sess_extra <- [];
    (s, [])

(* standing assumptions that bar [ecu] to the first [n_tasks] tasks *)
let ecu_forbids sess ~n_tasks ecu =
  let enc = Session.encoding sess in
  List.init n_tasks Fun.id
  |> List.filter_map (fun i ->
         match Encode.task_selector enc ~task:i ~ecu with
         | Circuits.Lit l -> Some (Lit.neg l)
         | Circuits.Zero | Circuits.One -> None)

let problem t = t.cur
let allocation t = t.alloc
let shed_so_far t = List.rev t.sheds

let find_task t name =
  let found = ref None in
  Array.iteri
    (fun i tk -> if tk.Model.task_name = name then found := Some i)
    t.cur.Model.tasks;
  !found

let find_medium t name =
  List.find_map
    (fun (m : Model.medium) ->
      if m.Model.med_name = name then Some m.Model.med_id else None)
    t.cur.Model.arch.Model.media

(* -- the solve core ----------------------------------------------------- *)

let all_indices sess = List.init (Array.length (Session.groups sess)) Fun.id

let group_assumptions sess =
  Array.to_list (Session.groups sess)
  |> List.map (fun (g : Encode.group) -> g.Encode.selector)

(* Minimal-migration solve on [sess] (encoding the problem being
   repaired) under standing assumptions [extra].  [stay_seat i] is the
   old seat of task [i] when that seat is still admissible.  Returns
   the extracted allocation and whether the migration count is proven
   minimal. *)
let attempt ?budget ~solves sess stay_seat ~n_tasks ~extra =
  let enc = Session.encoding sess in
  let ctx = Encode.context enc in
  let stays =
    List.init n_tasks Fun.id
    |> List.filter_map (fun i ->
           match stay_seat i with
           | None -> None
           | Some e -> (
             match Encode.task_selector enc ~task:i ~ecu:e with
             | Circuits.Lit l -> Some l
             | Circuits.One | Circuits.Zero -> None))
  in
  (* fast path: nobody migrates voluntarily *)
  incr solves;
  match Session.solve ?budget ~extra:(extra @ stays) sess (all_indices sess) with
  | Solver.Sat -> `Sat (Encode.extract enc, true)
  | Solver.Unknown -> `Unknown
  | Solver.Unsat -> (
    let cost =
      Bv.sum ctx
        (List.map
           (fun l -> Bv.ite ctx (Circuits.Lit l) Bv.zero (Bv.const 1))
           stays)
    in
    let assumptions = group_assumptions sess @ extra in
    let anytime, stats =
      Obs.span "repair.minimize" (fun () ->
          Opt.minimize ~mode:Opt.Incremental ~assumptions ~persist_bounds:false
            ~refine:(fun _ -> Encode.Lazy.refine enc)
            ?budget
            ~build:(fun () -> (ctx, cost))
            ~on_sat:(fun _ _ -> Encode.extract enc)
            ())
    in
    solves := !solves + stats.Opt.probes;
    match (anytime.Opt.resolution, anytime.Opt.incumbent) with
    | Opt.Infeasible, _ -> `Infeasible
    | (Opt.Optimal | Opt.Feasible_budget_exhausted), Some (_, alloc) ->
      `Sat (alloc, anytime.Opt.resolution = Opt.Optimal)
    | _ -> `Unknown)

(* groups of the last Unsat answer on [sess], optionally shrunk to a
   MUS under [extra] *)
let last_core ?budget ~shrink sess ~extra =
  let core0 = Session.core_indices sess in
  let core =
    if shrink then fst (Explain.shrink ?budget ~extra ~sessions:[| sess |] core0)
    else core0
  in
  List.map (fun i -> (Session.groups sess).(i)) core

(* Why did task [i] leave seat [e]?  Pin it back: an Unsat answer's
   shrunk core names the forcing groups; Sat means the seat alone was
   fine and the move served the global optimum. *)
let attribute ?budget ~solves ~explain sess ~extra i e =
  if not explain then []
  else
    match Encode.task_selector (Session.encoding sess) ~task:i ~ecu:e with
    | Circuits.Zero | Circuits.One -> []
    | Circuits.Lit l -> (
      incr solves;
      let extra = extra @ [ l ] in
      match Session.solve ?budget ~extra sess (all_indices sess) with
      | Solver.Unsat -> last_core ?budget ~shrink:true sess ~extra
      | Solver.Sat | Solver.Unknown -> [])

let migrations_of ?budget ~solves ~explain sess p ~extra ~old_raw alloc =
  List.init (Array.length p.Model.tasks) Fun.id
  |> List.filter_map (fun i ->
         match old_raw i with
         | None -> None (* arrival: a placement, not a migration *)
         | Some e when alloc.Model.task_ecu.(i) = e -> None
         | Some e ->
           let tk = p.Model.tasks.(i) in
           let forced = not (List.mem e (Model.allowed_ecus p tk)) in
           Some
             {
               m_task = tk.Model.task_name;
               m_from = e;
               m_to = alloc.Model.task_ecu.(i);
               m_forced = forced;
               m_because =
                 (if forced then []
                  else attribute ?budget ~solves ~explain sess ~extra i e);
             })

(* -- repair ------------------------------------------------------------- *)

(* analyzer violations and simulated misses; an allocation the
   analyzer rejects is not simulated ([-1]): [Sim] needs a WCET on
   every seat *)
let validate_repair p alloc =
  match Check.check p alloc with
  | [] -> (0, List.length (Sim.simulate p alloc).Sim.deadline_misses)
  | vs -> (List.length vs, -1)

(* The allocation in force still answers the event when the event kept
   every task and message id (no doomed task, no arrival) and the
   disrupted problem validates it: no migration can do better. *)
let answers_event t d =
  let msg_ids (tk : Model.task) =
    List.map (fun (m : Model.message) -> m.Model.msg_id) tk.Model.messages
  in
  d.d_doomed = []
  && Array.length d.d_problem.Model.tasks = Array.length t.cur.Model.tasks
  && Array.for_all2
       (fun a b -> msg_ids a = msg_ids b)
       t.cur.Model.tasks d.d_problem.Model.tasks
  && validate_repair d.d_problem t.alloc = (0, 0)

let repair ?budget ?(allow_shed = true) ?(explain = false) ?(validate = true) t
    event =
  Obs.span "repair.event" (fun () ->
      let t0 = Unix.gettimeofday () in
      let solves = ref 0 in
      if Obs.metrics_on () then Obs.Metrics.incr "repair.events";
      let d = apply_event t.cur event in
      let { d_problem; d_kept; d_doomed } = d in
      let _, raw' = disrupt t.cur event in
      (* highest criticality present in the post-event system defines
         the un-sheddable (HI) level *)
      let max_crit =
        Array.fold_left (fun m tk -> max m tk.Model.criticality) 0 raw'
      in
      let sheddable tk = tk.Model.criticality < max_crit in
      let old_seat_raw raw_id =
        if raw_id < Array.length t.alloc.Model.task_ecu then
          Some t.alloc.Model.task_ecu.(raw_id)
        else None (* an arrival has no old seat *)
      in
      (* name of a raw (pre-restrict) task id *)
      let raw_name i = raw'.(i).Model.task_name in
      let budget_tripped () =
        match budget with None -> false | Some b -> Budget.exhausted b
      in
      let finish ?validated ~warm ~sess ~sess_extra ~optimal ~migrations ~sheds
          p alloc =
        let check_violations, sim_misses =
          match validated with
          | Some v -> v
          | None -> if validate then validate_repair p alloc else (0, -1)
        in
        t.cur <- p;
        t.alloc <- alloc;
        t.sess <- sess;
        t.sess_extra <- sess_extra;
        t.sheds <- List.rev_map (fun s -> s.s_task) sheds @ t.sheds;
        if Obs.metrics_on () then begin
          Obs.Metrics.observe "repair.migrations" (List.length migrations);
          Obs.Metrics.observe "repair.sheds" (List.length sheds);
          if warm then Obs.Metrics.incr "repair.warm"
        end;
        Repaired
          {
            problem = p;
            allocation = alloc;
            migrations;
            sheds;
            degraded = sheds <> [];
            warm;
            optimal;
            solves = !solves;
            check_violations;
            sim_misses;
            time_s = Unix.gettimeofday () -. t0;
          }
      in
      (* doomed tasks shed themselves — or sink the repair *)
      let doomed_sheds =
        List.map
          (fun i ->
            {
              s_task = raw_name i;
              s_criticality = raw'.(i).Model.criticality;
              s_because = [];
            })
          d_doomed
      in
      let blocked =
        List.find_opt
          (fun i -> (not allow_shed) || not (sheddable raw'.(i)))
          d_doomed
      in
      (* warm: a pure ECU failure, expressible on the live session *)
      let warm =
        match event with Ecu_failure _ -> d_doomed = [] | _ -> false
      in
      match blocked with
      | Some i ->
        Irreparable
          {
            core = [];
            why =
              Printf.sprintf
                "task %s has no admissible ECU left and may not be shed%s"
                (raw_name i)
                (if allow_shed then " (highest criticality)" else "");
          }
      | None when answers_event t d ->
        (* nobody has to move: keep the allocation in force, and the
           live session only while assumptions still express the
           disrupted problem (an ECU failure); any other event changed
           the arithmetic that session encodes *)
        if Obs.metrics_on () then Obs.Metrics.incr "repair.witness";
        let sess, sess_extra =
          match (event, t.sess) with
          | Ecu_failure { ecu }, Some s ->
            ( Some s,
              t.sess_extra
              @ ecu_forbids s ~n_tasks:(Array.length d_problem.Model.tasks) ecu )
          | _ -> (None, [])
        in
        finish ~validated:(0, 0) ~warm ~sess ~sess_extra ~optimal:true
          ~migrations:[] ~sheds:[] d_problem t.alloc
      | None -> (
        (* session: the live one on a warm event, rebuilt otherwise *)
        let sess, sess_extra =
          match event with
          | Ecu_failure { ecu } when warm ->
            let s, extra = live_session t in
            ( s,
              extra
              @ ecu_forbids s ~n_tasks:(Array.length d_problem.Model.tasks) ecu )
          | _ ->
            ( Obs.span "repair.encode" (fun () ->
                  Session.create ?options:t.options d_problem),
              [] )
        in
        (* stay-pins only for tasks whose old seat is still admissible *)
        let stay_seat i =
          match old_seat_raw d_kept.(i) with
          | Some e
            when List.mem e
                   (Model.allowed_ecus d_problem d_problem.Model.tasks.(i)) ->
            Some e
          | _ -> None
        in
        match
          Obs.span "repair.attempt" (fun () ->
              attempt ?budget ~solves sess stay_seat
                ~n_tasks:(Array.length d_problem.Model.tasks)
                ~extra:sess_extra)
        with
        | `Unknown -> Unknown
        | `Sat (alloc, optimal) ->
          let migrations =
            migrations_of ?budget ~solves ~explain sess d_problem
              ~extra:sess_extra
              ~old_raw:(fun i -> old_seat_raw d_kept.(i))
              alloc
          in
          finish ~warm ~sess:(Some sess) ~sess_extra ~optimal ~migrations
            ~sheds:doomed_sheds d_problem alloc
        | `Infeasible -> (
          (* full repair impossible: walk the degradation ladder *)
          let core0 = last_core ?budget ~shrink:explain sess ~extra:sess_extra in
          if not allow_shed then
            Irreparable
              { core = core0; why = "no repair without shedding (disabled)" }
          else begin
            (* candidates in d_problem numbering: lowest criticality
               first, then highest utilization (fewest sheds), then id *)
            let util tk =
              List.fold_left
                (fun m (e, _) ->
                  if List.mem e d_problem.Model.arch.Model.barred then m
                  else max m (Model.wcet_on tk e * 1000 / tk.Model.period))
                0 tk.Model.wcets
            in
            let candidates =
              Array.to_list d_problem.Model.tasks
              |> List.filter sheddable
              |> List.sort (fun a b ->
                     match Int.compare a.Model.criticality b.Model.criticality with
                     | 0 -> (
                       match Int.compare (util b) (util a) with
                       | 0 -> Int.compare a.Model.task_id b.Model.task_id
                       | c -> c)
                     | c -> c)
              |> List.map (fun tk -> tk.Model.task_id)
            in
            let rec ladder shed_ids sheds cands core =
              if budget_tripped () then Unknown
              else
                match cands with
                | [] ->
                  Irreparable
                    {
                      core;
                      why =
                        (if candidates = [] then
                           "infeasible and no task is sheddable (uniform \
                            criticality)"
                         else "infeasible even after shedding every sheddable task");
                    }
                | c :: rest -> (
                  let shed_ids = c :: shed_ids in
                  let sheds =
                    sheds
                    @ [
                        {
                          s_task = d_problem.Model.tasks.(c).Model.task_name;
                          s_criticality =
                            d_problem.Model.tasks.(c).Model.criticality;
                          s_because = core;
                        };
                      ]
                  in
                  let reduced, kept_r =
                    restrict ~arch:d_problem.Model.arch d_problem.Model.tasks
                      ~drop:shed_ids
                  in
                  let rs =
                    Obs.span "repair.encode" (fun () ->
                        Session.create ?options:t.options reduced)
                  in
                  let stay_r j =
                    match old_seat_raw d_kept.(kept_r.(j)) with
                    | Some e
                      when List.mem e
                             (Model.allowed_ecus reduced reduced.Model.tasks.(j))
                      ->
                      Some e
                    | _ -> None
                  in
                  match
                    Obs.span "repair.ladder" (fun () ->
                        attempt ?budget ~solves rs stay_r
                          ~n_tasks:(Array.length reduced.Model.tasks)
                          ~extra:[])
                  with
                  | `Unknown -> Unknown
                  | `Sat (alloc, optimal) ->
                    let migrations =
                      migrations_of ?budget ~solves ~explain rs reduced
                        ~extra:[]
                        ~old_raw:(fun j -> old_seat_raw d_kept.(kept_r.(j)))
                        alloc
                    in
                    finish ~warm:false ~sess:(Some rs) ~sess_extra:[] ~optimal
                      ~migrations ~sheds:(doomed_sheds @ sheds) reduced alloc
                  | `Infeasible ->
                    let core' = last_core ?budget ~shrink:explain rs ~extra:[] in
                    ladder shed_ids sheds rest core')
            in
            Obs.span "repair.degrade" (fun () -> ladder [] [] candidates core0)
          end)))
