(* Differential and certifying fuzzing of the solver stack.

   Instances are kept small enough (<= 16 variables) that a brute-force
   enumeration over all assignments is an unimpeachable oracle.  The
   solver's Sat answers are re-evaluated semantically; its Unsat
   answers must come with a DRUP trace the independent checker accepts.
   Every case derives from one integer seed, so a report line is a
   complete reproduction recipe. *)

open Taskalloc_sat
module Rng = Taskalloc_workloads.Rng
module Proof = Taskalloc_proof.Proof
module Portfolio = Taskalloc_portfolio.Portfolio

type pb_instance = {
  pb_vars : int;
  constraints : Proof.pb list;
}

type case = Cnf of Dimacs.cnf | Pb of pb_instance

let pp_case ppf = function
  | Cnf cnf -> Dimacs.print_cnf ppf cnf
  | Pb { pb_vars; constraints } ->
    Fmt.pf ppf "p pb %d %d@." pb_vars (List.length constraints);
    List.iter
      (fun { Proof.terms; degree } ->
        List.iter (fun (a, l) -> Fmt.pf ppf "%+d x%d " a l) terms;
        Fmt.pf ppf ">= %d@." degree)
      constraints

(* -- generation --------------------------------------------------------- *)

(* [len] distinct variables drawn from [1..nvars]. *)
let distinct_vars rng nvars len =
  List.filteri (fun i _ -> i < len) (Rng.shuffle rng (List.init nvars (fun v -> v + 1)))

let gen_cnf ~seed ~max_vars =
  let rng = Rng.create ((2 * seed) + 1) in
  let nvars = Rng.range rng 3 (max 3 max_vars) in
  (* clause counts spanning the under- and over-constrained regimes,
     centred near the 3-SAT threshold ratio so both answers are common *)
  let nclauses = Rng.range rng nvars ((9 * nvars / 2) + 2) in
  let clause () =
    let len = if Rng.bool rng 0.15 then Rng.range rng 1 2 else 3 in
    distinct_vars rng nvars len
    |> List.map (fun v -> if Rng.bool rng 0.5 then v else -v)
  in
  { Dimacs.num_vars = nvars; clauses = List.init nclauses (fun _ -> clause ()) }

let gen_pb ~seed ~max_vars =
  let rng = Rng.create ((2 * seed) + 1) in
  let nvars = Rng.range rng 2 (max 2 max_vars) in
  let ncons = Rng.range rng 1 (2 * nvars) in
  let constraint_ () =
    let k = Rng.range rng 1 (min 5 nvars) in
    let terms =
      distinct_vars rng nvars k
      |> List.map (fun v ->
             (Rng.range rng 1 4, if Rng.bool rng 0.5 then v else -v))
    in
    let total = List.fold_left (fun s (a, _) -> s + a) 0 terms in
    (* degrees from trivially-true (0) to just-infeasible (total + 2) *)
    { Proof.terms; degree = Rng.range rng 0 (total + 2) }
  in
  { pb_vars = nvars; constraints = List.init ncons (fun _ -> constraint_ ()) }

let gen_case ~seed ~max_vars =
  if seed land 1 = 0 then Cnf (gen_cnf ~seed ~max_vars)
  else Pb (gen_pb ~seed ~max_vars)

(* -- brute-force oracle ------------------------------------------------- *)

(* DIMACS literal value under assignment bitmask [m]. *)
let lit_true m l = (m lsr (abs l - 1)) land 1 = if l > 0 then 1 else 0

let eval_cnf cnf m =
  List.for_all (fun c -> List.exists (lit_true m) c) cnf.Dimacs.clauses

let eval_pb { pb_vars = _; constraints } m =
  List.for_all
    (fun { Proof.terms; degree } ->
      List.fold_left (fun s (a, l) -> if lit_true m l then s + a else s) 0 terms
      >= degree)
    constraints

let nvars_of = function
  | Cnf cnf -> cnf.Dimacs.num_vars
  | Pb { pb_vars; _ } -> pb_vars

let eval case m =
  match case with Cnf cnf -> eval_cnf cnf m | Pb pb -> eval_pb pb m

let oracle case =
  let n = nvars_of case in
  let rec go m = m < 1 lsl n && (eval case m || go (m + 1)) in
  go 0

(* -- differential driver ------------------------------------------------ *)

(* Load a case into a fresh solver with proof recording installed
   before the first constraint, so add-time refutations are logged. *)
let load case =
  let s = Solver.create () in
  let trace = Proof.record s in
  (match case with
  | Cnf cnf ->
    for _ = 1 to cnf.Dimacs.num_vars do
      ignore (Solver.new_var s)
    done;
    List.iter
      (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c))
      cnf.Dimacs.clauses
  | Pb { pb_vars; constraints } ->
    for _ = 1 to pb_vars do
      ignore (Solver.new_var s)
    done;
    List.iter
      (fun { Proof.terms; degree } ->
        if degree > 0 then
          Solver.add_pb_geq s
            (List.map (fun (a, l) -> (a, Lit.of_dimacs l)) terms)
            degree)
      constraints);
  (s, trace)

let model_mask case s =
  let n = nvars_of case in
  let m = ref 0 in
  for v = 0 to n - 1 do
    if Solver.model_value s (Lit.of_var v) then m := !m lor (1 lsl v)
  done;
  !m

(* The CNF/PB view of a case that the proof checker certifies against. *)
let checker_view = function
  | Cnf cnf -> (cnf, [])
  | Pb { pb_vars; constraints } ->
    ({ Dimacs.num_vars = pb_vars; clauses = [] }, constraints)

(* Solve a case sequentially or as a [jobs]-worker portfolio.  Every
   worker records a proof (installed by [load] before the constraints),
   so no worker ever imports shared clauses and the winner's trace is
   self-contained — the certifying pipeline below is identical in both
   modes.  Returns the deciding solver and its trace. *)
let solve_case ~jobs case =
  if jobs <= 1 then begin
    let s, trace = load case in
    (Solver.solve s, Some (s, trace))
  end
  else begin
    let outcome =
      Portfolio.solve ~jobs
        ~build:(fun _i ->
          let s, trace = load case in
          ((s, trace), s))
        ()
    in
    (outcome.Portfolio.result, outcome.Portfolio.payload)
  end

let check_case ?(jobs = 1) case =
  let expected = oracle case in
  match solve_case ~jobs case with
  | Solver.Unknown, _ -> Error "solver returned Unknown without a budget"
  | _, None -> Error "portfolio returned no winner"
  | Solver.Sat, Some (s, _) ->
    if not expected then Error "solver says Sat, oracle says Unsat"
    else if not (eval case (model_mask case s)) then
      Error "Sat model does not satisfy the instance"
    else Ok ()
  | Solver.Unsat, Some (_, trace) ->
    if expected then Error "solver says Unsat, oracle says Sat"
    else begin
      let cnf, pbs = checker_view case in
      match Proof.verify ~pbs cnf (trace ()) with
      | Proof.Valid -> Ok ()
      | Proof.Invalid { step; reason } ->
        Error (Fmt.str "Unsat proof rejected at step %d: %s" step reason)
    end

(* -- shrinking ---------------------------------------------------------- *)

let fails ?jobs case = Result.is_error (check_case ?jobs case)

let without i xs = List.filteri (fun j _ -> j <> i) xs

(* One-step simplifications, most aggressive first. *)
let variants = function
  | Cnf cnf ->
    let n = List.length cnf.Dimacs.clauses in
    List.init n (fun i ->
        Cnf { cnf with Dimacs.clauses = without i cnf.Dimacs.clauses })
    @ List.concat
        (List.mapi
           (fun i c ->
             if List.length c <= 1 then []
             else
               List.mapi
                 (fun j _ ->
                   Cnf
                     {
                       cnf with
                       Dimacs.clauses =
                         List.mapi
                           (fun i' c' -> if i' = i then without j c' else c')
                           cnf.Dimacs.clauses;
                     })
                 c)
           cnf.Dimacs.clauses)
  | Pb pb ->
    let n = List.length pb.constraints in
    let update i f =
      Pb
        {
          pb with
          constraints =
            List.mapi (fun i' c -> if i' = i then f c else c) pb.constraints;
        }
    in
    List.init n (fun i -> Pb { pb with constraints = without i pb.constraints })
    @ List.concat
        (List.mapi
           (fun i { Proof.terms; degree } ->
             (if degree > 0 then
                [ update i (fun c -> { c with Proof.degree = degree - 1 }) ]
              else [])
             @ (if List.length terms > 1 then
                  List.mapi
                    (fun j _ ->
                      update i (fun c ->
                          { c with Proof.terms = without j c.Proof.terms }))
                    terms
                else [])
             @ List.concat
                 (List.mapi
                    (fun j (a, _) ->
                      if a <= 1 then []
                      else
                        [
                          update i (fun c ->
                              {
                                c with
                                Proof.terms =
                                  List.mapi
                                    (fun j' (a', l') ->
                                      if j' = j then (a' - 1, l') else (a', l'))
                                    c.Proof.terms;
                              });
                        ])
                    terms))
           pb.constraints)

let shrink ?jobs case =
  if not (fails ?jobs case) then case
  else begin
    let fuel = ref 400 in
    let rec go case =
      let rec first = function
        | [] -> None
        | v :: rest ->
          if !fuel <= 0 then None
          else begin
            decr fuel;
            if fails ?jobs v then Some v else first rest
          end
      in
      match first (variants case) with Some v -> go v | None -> case
    in
    go case
  end

(* -- campaigns ---------------------------------------------------------- *)

type failure = {
  fail_seed : int;
  fail_case : case;
  fail_error : string;
}

module Obs = Taskalloc_obs.Obs

type report = {
  iters : int;
  n_sat : int;
  n_unsat : int;
  failures : failure list;
  solve_us : Obs.Hist.t;
}

let run ?(max_vars = 10) ?(jobs = 1) ?(log = ignore) ~iters ~seed () =
  let max_vars = min 16 (max 2 max_vars) in
  let rng = Rng.create seed in
  let n_sat = ref 0 and n_unsat = ref 0 in
  let failures = ref [] in
  (* per-iteration solve-time histogram (µs): the campaign doubles as a
     perf canary — a regression shifts the distribution even when every
     differential check still passes.  Iteration granularity, so the
     two clock samples per case are nowhere near any hot loop. *)
  let solve_us = Obs.Hist.create () in
  for i = 0 to iters - 1 do
    let case_seed = Rng.int rng 0x3FFFFFFF in
    let case = gen_case ~seed:case_seed ~max_vars in
    if oracle case then incr n_sat else incr n_unsat;
    let t0 = Unix.gettimeofday () in
    let checked = check_case ~jobs case in
    Obs.Hist.add solve_us
      (int_of_float (Float.max 0. ((Unix.gettimeofday () -. t0) *. 1e6)));
    match checked with
    | Ok () -> ()
    | Error e ->
      log (Fmt.str "iter %d (seed %d): %s" i case_seed e);
      failures :=
        { fail_seed = case_seed; fail_case = shrink ~jobs case; fail_error = e }
        :: !failures
  done;
  {
    iters;
    n_sat = !n_sat;
    n_unsat = !n_unsat;
    failures = List.rev !failures;
    solve_us;
  }

let pp_report ppf r =
  Fmt.pf ppf "%d cases: %d sat, %d unsat, %d failures@." r.iters r.n_sat
    r.n_unsat
    (List.length r.failures);
  if Obs.Hist.count r.solve_us > 0 then
    Fmt.pf ppf "solve time per case: %a us@." Obs.Hist.pp r.solve_us;
  List.iter
    (fun f ->
      Fmt.pf ppf "FAILURE (seed %d): %s@.minimized reproducer:@.%a" f.fail_seed
        f.fail_error pp_case f.fail_case)
    r.failures

(* -- disruption campaigns ----------------------------------------------- *)

module Model = Taskalloc_rt.Model
module Check = Taskalloc_rt.Check
module Allocator = Taskalloc_core.Allocator
module Heuristics = Taskalloc_heuristics.Heuristics
module Repair = Taskalloc_repair.Repair

type disruption_report = {
  d_iters : int;
  d_events : int;
  d_repaired : int;
  d_degraded : int;
  d_irreparable : int;
  d_unknown : int;
  d_skipped : int;
  d_oracle_checked : int;
  d_failures : string list;
}

(* Small message-free instances with pairwise-distinct deadlines: the
   deadline-monotonic priority order is then unique, so the analytical
   checker and the SAT encoder agree exactly and "minimal migration
   count" is well defined for the brute-force oracle. *)
let gen_disruption_problem rng =
  let n_ecus = Rng.range rng 2 3 in
  let n_tasks = Rng.range rng 3 5 in
  let task i =
    {
      Model.task_id = i;
      task_name = Printf.sprintf "t%d" i;
      period = 200;
      wcets = List.init n_ecus (fun e -> (e, Rng.range rng 8 22));
      deadline = (Rng.range rng 5 12 * 8) + i (* pairwise distinct *);
      memory = 1;
      separation = [];
      messages = [];
      jitter = 0;
      blocking = 0;
      criticality = Rng.int rng 2;
    }
  in
  let arch =
    {
      Model.n_ecus;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind = Model.Tdma;
            ecus = List.init n_ecus Fun.id;
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = Array.make n_ecus 64;
      gateway_service = 0;
      barred = [];
    }
  in
  Model.make_problem ~arch ~tasks:(List.init n_tasks task)

let gen_disruption_event rng st k =
  let p = Repair.problem st in
  let arch = p.Model.arch in
  let alive =
    List.filter
      (fun e -> not (List.mem e arch.Model.barred))
      (List.init arch.Model.n_ecus Fun.id)
  in
  let n_tasks = Array.length p.Model.tasks in
  let kind = Rng.int rng 4 in
  let kind = if kind = 0 && List.length alive <= 1 then 1 else kind in
  match kind with
  | 0 -> Repair.Ecu_failure { ecu = Rng.pick rng alive }
  | 1 ->
    Repair.Wcet_overrun
      { task = Rng.int rng n_tasks; percent = Rng.range rng 110 250 }
  | 2 ->
    Repair.Task_arrival
      {
        name = Printf.sprintf "nu%d" k;
        period = 200;
        deadline = Rng.range rng 100 180;
        memory = 1;
        criticality = Rng.int rng 2;
        wcets = List.init arch.Model.n_ecus (fun e -> (e, Rng.range rng 8 20));
      }
  | _ -> Repair.Bus_degradation { medium = 0; percent = Rng.range rng 120 300 }

(* brute-force minimal-migration oracle: least Hamming distance from
   the pre-event seats to any placement the analytical checker accepts *)
let oracle_min_migrations old_alloc (d : Repair.disrupted) =
  if d.Repair.d_doomed <> [] then None
  else begin
    let p = d.Repair.d_problem in
    let domains =
      Array.map
        (fun t -> Array.of_list (Model.allowed_ecus p t))
        p.Model.tasks
    in
    let n = Array.length domains in
    let best = ref None in
    let cur = Array.make n 0 in
    let rec go i =
      if i = n then begin
        match Heuristics.try_complete p (Array.copy cur) with
        | Some a when Check.check p a = [] ->
          let dist = ref 0 in
          Array.iteri
            (fun j e ->
              if e <> old_alloc.Model.task_ecu.(d.Repair.d_kept.(j)) then
                incr dist)
            cur;
          best :=
            Some (match !best with None -> !dist | Some b -> min b !dist)
        | _ -> ()
      end
      else
        Array.iter
          (fun e ->
            cur.(i) <- e;
            go (i + 1))
          domains.(i)
    in
    if Array.for_all (fun dom -> Array.length dom > 0) domains then go 0;
    !best
  end

(* one campaign iteration, deterministic in (seed, i) *)
let disruption_iter ~seed i =
  let rng = Rng.create (seed lxor (i * 0x9E3779B1)) in
  let fail = ref [] in
  let failf fmt = Fmt.kstr (fun m -> fail := Fmt.str "iter %d: %s" i m :: !fail) fmt in
  let events = ref 0
  and repaired = ref 0
  and degraded = ref 0
  and irreparable = ref 0
  and unknown = ref 0
  and oracle_checked = ref 0 in
  let problem = gen_disruption_problem rng in
  let skipped =
    match Allocator.find_feasible ~fallback:false problem with
    | Allocator.Solved res ->
      let alloc = res.Allocator.allocation in
      (* phase 1: oracle cross-check of the first event (no shedding,
         so minimality is a plain Hamming-distance question) *)
      let st0 = Repair.create problem alloc in
      let ev0 = gen_disruption_event rng st0 0 in
      (match ev0 with
      | Repair.Ecu_failure _ | Repair.Wcet_overrun _ -> (
        incr oracle_checked;
        let oracle =
          oracle_min_migrations alloc (Repair.apply_event problem ev0)
        in
        match (Repair.repair ~allow_shed:false st0 ev0, oracle) with
        | Repair.Repaired r, Some b ->
          if List.length r.Repair.migrations <> b then
            failf "repair migrated %d, oracle minimum %d (%a)"
              (List.length r.Repair.migrations)
              b
              (Repair.pp_event problem)
              ev0
        | Repair.Repaired _, None ->
          failf "repair succeeded where the oracle proves infeasibility"
        | Repair.Irreparable _, Some b ->
          failf "repair gave up, oracle repairs with %d migrations" b
        | Repair.Irreparable _, None -> ()
        | Repair.Unknown, _ -> failf "unbudgeted repair returned Unknown")
      | _ -> ());
      (* phase 2: multi-event campaign with the degradation ladder on *)
      let st = Repair.create problem alloc in
      let n_events = Rng.range rng 2 4 in
      for k = 1 to n_events do
        incr events;
        let ev = gen_disruption_event rng st k in
        let tasks_before = Array.length (Repair.problem st).Model.tasks in
        let seats_before = Array.copy (Repair.allocation st).Model.task_ecu in
        match Repair.repair st ev with
        | Repair.Repaired r ->
          incr repaired;
          if r.Repair.degraded then incr degraded;
          if r.Repair.check_violations <> 0 then
            failf "event %d: analyzer found %d violations" k
              r.Repair.check_violations;
          if r.Repair.sim_misses <> 0 then
            failf "event %d: %d deadline misses in simulation" k
              r.Repair.sim_misses
        | Repair.Irreparable _ ->
          incr irreparable;
          if
            Array.length (Repair.problem st).Model.tasks <> tasks_before
            || (Repair.allocation st).Model.task_ecu <> seats_before
          then failf "event %d: irreparable repair mutated the state" k
        | Repair.Unknown ->
          incr unknown;
          failf "event %d: unbudgeted repair returned Unknown" k
      done;
      0
    | Allocator.Infeasible | Allocator.Unknown -> 1
  in
  {
    d_iters = 1;
    d_events = !events;
    d_repaired = !repaired;
    d_degraded = !degraded;
    d_irreparable = !irreparable;
    d_unknown = !unknown;
    d_skipped = skipped;
    d_oracle_checked = !oracle_checked;
    d_failures = List.rev !fail;
  }

let merge_disruptions a b =
  {
    d_iters = a.d_iters + b.d_iters;
    d_events = a.d_events + b.d_events;
    d_repaired = a.d_repaired + b.d_repaired;
    d_degraded = a.d_degraded + b.d_degraded;
    d_irreparable = a.d_irreparable + b.d_irreparable;
    d_unknown = a.d_unknown + b.d_unknown;
    d_skipped = a.d_skipped + b.d_skipped;
    d_oracle_checked = a.d_oracle_checked + b.d_oracle_checked;
    d_failures = a.d_failures @ b.d_failures;
  }

let empty_disruption_report =
  {
    d_iters = 0;
    d_events = 0;
    d_repaired = 0;
    d_degraded = 0;
    d_irreparable = 0;
    d_unknown = 0;
    d_skipped = 0;
    d_oracle_checked = 0;
    d_failures = [];
  }

(* Run [iter i] for every [i < iters] and fold the results.  Iterations
   are deterministic in their index, so splitting them round-robin over
   [jobs] domains changes nothing but wall time. *)
let campaign ~jobs ~iters ~merge ~empty iter =
  let results =
    if jobs <= 1 then List.init iters iter
    else begin
      let chunks = Array.make jobs [] in
      for i = iters - 1 downto 0 do
        chunks.(i mod jobs) <- i :: chunks.(i mod jobs)
      done;
      Array.to_list chunks
      |> List.map (fun idxs -> Domain.spawn (fun () -> List.map iter idxs))
      |> List.concat_map Domain.join
    end
  in
  List.fold_left merge empty results

let run_disruptions ?(jobs = 1) ?(log = ignore) ~iters ~seed () =
  let report =
    campaign ~jobs ~iters ~merge:merge_disruptions ~empty:empty_disruption_report
      (disruption_iter ~seed)
  in
  List.iter log report.d_failures;
  report

let pp_disruption_report ppf r =
  Fmt.pf ppf
    "%d campaigns (%d skipped infeasible), %d events: %d repaired (%d \
     degraded), %d irreparable, %d unknown; %d oracle cross-checks, %d \
     failures@."
    r.d_iters r.d_skipped r.d_events r.d_repaired r.d_degraded r.d_irreparable
    r.d_unknown r.d_oracle_checked
    (List.length r.d_failures);
  List.iter (fun f -> Fmt.pf ppf "FAILURE: %s@." f) r.d_failures

(* -- lazy-vs-eager differential campaigns -------------------------------- *)

module Encode = Taskalloc_core.Encode

type lazy_report = {
  l_iters : int;
  l_sat : int;
  l_unsat : int;
  l_unknown : int;
  l_eager_vars : int;
  l_lazy_vars : int;
  l_failures : string list;
}

(* Small full-featured instances: distinct deadlines (unique DM order),
   one bus of either kind, occasional messages, jitter and blocking.
   Unlike the PB fuzzer above, the oracle here is the eager encoding
   itself — any divergence of the CEGAR abstraction from it is a bug in
   the refinement loop, the relaxation cuts, or the checker closures. *)
let gen_lazy_problem rng =
  let n_ecus = Rng.range rng 2 3 in
  let n_tasks = Rng.range rng 3 6 in
  let kind = if Rng.int rng 2 = 0 then Model.Tdma else Model.Priority in
  let with_msg = n_tasks >= 2 && Rng.int rng 2 = 0 in
  let task i =
    let messages =
      if with_msg && i = 0 then
        [
          {
            Model.msg_id = 0;
            src = 0;
            dst = 1;
            bytes = Rng.range rng 2 8;
            msg_deadline = Rng.range rng 60 160;
          };
        ]
      else []
    in
    {
      Model.task_id = i;
      task_name = Printf.sprintf "t%d" i;
      period = 200;
      wcets = List.init n_ecus (fun e -> (e, Rng.range rng 8 22));
      deadline = (Rng.range rng 5 12 * 8) + i (* pairwise distinct *);
      memory = 1;
      separation = [];
      messages;
      jitter = Rng.int rng 3;
      blocking = Rng.int rng 4;
      criticality = 0;
    }
  in
  let arch =
    {
      Model.n_ecus;
      media =
        [
          {
            Model.med_id = 0;
            med_name = "bus";
            kind;
            ecus = List.init n_ecus Fun.id;
            byte_time = 1;
            frame_overhead = 2;
          };
        ];
      mem_capacity = Array.make n_ecus 64;
      gateway_service = 0;
      barred = [];
    }
  in
  (Model.make_problem ~arch ~tasks:(List.init n_tasks task), kind)

let lazy_iter ~seed i =
  let rng = Rng.create (seed lxor (i * 0x45D9F3B5)) in
  let fail = ref [] in
  let failf fmt =
    Fmt.kstr (fun m -> fail := Fmt.str "iter %d: %s" i m :: !fail) fmt
  in
  let problem, kind = gen_lazy_problem rng in
  let objective =
    match (Rng.int rng 3, kind) with
    | 0, Model.Tdma -> Encode.Min_trt 0
    | 1, _ -> Encode.Min_max_util
    | _ -> Encode.Feasible
  in
  let solve lazy_mode =
    let options = { Encode.default_options with Encode.lazy_mode } in
    Allocator.solve ~options ~fallback:false problem objective
  in
  let eager = solve false and lzy = solve true in
  let verdict = function
    | Allocator.Solved _ -> "SOLVED"
    | Allocator.Infeasible -> "INFEASIBLE"
    | Allocator.Unknown -> "UNKNOWN"
  in
  let sat = ref 0 and unsat = ref 0 and unknown = ref 0 in
  let eager_vars = ref 0 and lazy_vars = ref 0 in
  (match (eager, lzy) with
  | Allocator.Solved e, Allocator.Solved l ->
    incr sat;
    eager_vars := e.Allocator.bool_vars;
    lazy_vars := l.Allocator.bool_vars;
    if e.Allocator.cost <> l.Allocator.cost then
      failf "optimum mismatch: eager cost %d, lazy cost %d" e.Allocator.cost
        l.Allocator.cost;
    if l.Allocator.violations <> [] then
      failf "lazy allocation rejected by the analytical checker";
    if e.Allocator.violations <> [] then
      failf "eager allocation rejected by the analytical checker"
  | Allocator.Infeasible, Allocator.Infeasible -> incr unsat
  | Allocator.Unknown, _ | _, Allocator.Unknown ->
    incr unknown;
    failf "unbudgeted solve returned UNKNOWN (eager=%s lazy=%s)"
      (verdict eager) (verdict lzy)
  | _ ->
    failf "verdict mismatch: eager=%s lazy=%s" (verdict eager) (verdict lzy));
  {
    l_iters = 1;
    l_sat = !sat;
    l_unsat = !unsat;
    l_unknown = !unknown;
    l_eager_vars = !eager_vars;
    l_lazy_vars = !lazy_vars;
    l_failures = List.rev !fail;
  }

let merge_lazy a b =
  {
    l_iters = a.l_iters + b.l_iters;
    l_sat = a.l_sat + b.l_sat;
    l_unsat = a.l_unsat + b.l_unsat;
    l_unknown = a.l_unknown + b.l_unknown;
    l_eager_vars = a.l_eager_vars + b.l_eager_vars;
    l_lazy_vars = a.l_lazy_vars + b.l_lazy_vars;
    l_failures = a.l_failures @ b.l_failures;
  }

let empty_lazy_report =
  {
    l_iters = 0;
    l_sat = 0;
    l_unsat = 0;
    l_unknown = 0;
    l_eager_vars = 0;
    l_lazy_vars = 0;
    l_failures = [];
  }

let run_lazy ?(jobs = 1) ?(log = ignore) ~iters ~seed () =
  let report =
    campaign ~jobs ~iters ~merge:merge_lazy ~empty:empty_lazy_report (lazy_iter ~seed)
  in
  List.iter log report.l_failures;
  report

let pp_lazy_report ppf r =
  Fmt.pf ppf
    "%d lazy-vs-eager cases: %d solved, %d infeasible, %d unknown, %d failures@."
    r.l_iters r.l_sat r.l_unsat r.l_unknown
    (List.length r.l_failures);
  if r.l_eager_vars > 0 then
    Fmt.pf ppf "final formula vars (solved cases): eager %d, lazy %d (%.2fx)@."
      r.l_eager_vars r.l_lazy_vars
      (float_of_int r.l_eager_vars /. float_of_int (max 1 r.l_lazy_vars));
  List.iter (fun f -> Fmt.pf ppf "FAILURE: %s@." f) r.l_failures

(* -- inprocessing differential campaigns -------------------------------- *)

type inprocess_report = {
  i_iters : int;
  i_sat : int;
  i_unsat : int;
  i_certified : int;
  i_alloc_solved : int;
  i_alloc_infeasible : int;
  i_failures : string list;
}

let result_name = function
  | Solver.Sat -> "SAT"
  | Solver.Unsat -> "UNSAT"
  | Solver.Unknown -> "UNKNOWN"

(* One iteration runs the differential at both ends of the stack: a raw
   CNF/PB case solved with and without the passes (certifying the
   inprocessed Unsat trace — vivification, subsumption and BVE all log
   their derived clauses, so the DRUP pipeline must still close), and a
   full allocation problem solved through encoder and optimizer both
   ways (the selector literals the session assumes are frozen against
   elimination; a verdict or optimum divergence would expose a BVE
   soundness hole no SAT-level case can see). *)
let inprocess_iter ~max_vars ~seed i =
  let rng = Rng.create (seed lxor (i * 0x2545F491)) in
  let fail = ref [] in
  let failf fmt =
    Fmt.kstr (fun m -> fail := Fmt.str "iter %d: %s" i m :: !fail) fmt
  in
  let sat = ref 0 and unsat = ref 0 and certified = ref 0 in
  let solved = ref 0 and infeasible = ref 0 in
  let case_seed = Rng.int rng 0x3FFFFFFF in
  let case = gen_case ~seed:case_seed ~max_vars in
  let s0, _ = load case in
  let r0 = Solver.solve s0 in
  let s1, trace = load case in
  (* an aggressive cadence so even these tiny instances re-enter the
     passes between restart episodes, not just the preprocessing shot *)
  Inprocess.install ~every:32 s1;
  let r1 = Solver.solve s1 in
  (match (r0, r1) with
  | Solver.Sat, Solver.Sat ->
    incr sat;
    if not (eval case (model_mask case s1)) then
      failf "case seed %d: inprocessed Sat model does not satisfy the instance"
        case_seed
  | Solver.Unsat, Solver.Unsat -> (
    incr unsat;
    let cnf, pbs = checker_view case in
    match Proof.verify ~pbs cnf (trace ()) with
    | Proof.Valid -> incr certified
    | Proof.Invalid { step; reason } ->
      failf "case seed %d: inprocessed Unsat proof rejected at step %d: %s"
        case_seed step reason)
  | a, b ->
    failf "case seed %d: verdict mismatch: plain=%s inprocessed=%s" case_seed
      (result_name a) (result_name b));
  let problem, kind = gen_lazy_problem rng in
  let objective =
    match (Rng.int rng 3, kind) with
    | 0, Model.Tdma -> Encode.Min_trt 0
    | 1, _ -> Encode.Min_max_util
    | _ -> Encode.Feasible
  in
  let solve inprocess =
    let options =
      { Encode.default_options with Encode.inprocess = Some inprocess }
    in
    Allocator.solve ~options ~fallback:false problem objective
  in
  let plain = solve false and inpro = solve true in
  let verdict = function
    | Allocator.Solved _ -> "SOLVED"
    | Allocator.Infeasible -> "INFEASIBLE"
    | Allocator.Unknown -> "UNKNOWN"
  in
  (match (plain, inpro) with
  | Allocator.Solved p, Allocator.Solved q ->
    incr solved;
    if p.Allocator.cost <> q.Allocator.cost then
      failf "allocation optimum mismatch: plain %d, inprocessed %d"
        p.Allocator.cost q.Allocator.cost;
    if q.Allocator.violations <> [] then
      failf "inprocessed allocation rejected by the analytical checker"
  | Allocator.Infeasible, Allocator.Infeasible -> incr infeasible
  | a, b ->
    failf "allocation verdict mismatch: plain=%s inprocessed=%s" (verdict a)
      (verdict b));
  {
    i_iters = 1;
    i_sat = !sat;
    i_unsat = !unsat;
    i_certified = !certified;
    i_alloc_solved = !solved;
    i_alloc_infeasible = !infeasible;
    i_failures = List.rev !fail;
  }

let merge_inprocess a b =
  {
    i_iters = a.i_iters + b.i_iters;
    i_sat = a.i_sat + b.i_sat;
    i_unsat = a.i_unsat + b.i_unsat;
    i_certified = a.i_certified + b.i_certified;
    i_alloc_solved = a.i_alloc_solved + b.i_alloc_solved;
    i_alloc_infeasible = a.i_alloc_infeasible + b.i_alloc_infeasible;
    i_failures = a.i_failures @ b.i_failures;
  }

let empty_inprocess_report =
  {
    i_iters = 0;
    i_sat = 0;
    i_unsat = 0;
    i_certified = 0;
    i_alloc_solved = 0;
    i_alloc_infeasible = 0;
    i_failures = [];
  }

let run_inprocess ?(max_vars = 10) ?(jobs = 1) ?(log = ignore) ~iters ~seed () =
  let max_vars = min 16 (max 2 max_vars) in
  let report =
    campaign ~jobs ~iters ~merge:merge_inprocess ~empty:empty_inprocess_report
      (inprocess_iter ~max_vars ~seed)
  in
  List.iter log report.i_failures;
  report

let pp_inprocess_report ppf r =
  Fmt.pf ppf
    "%d inprocessing cases: %d sat, %d unsat (%d certified); %d allocations \
     solved, %d infeasible, %d failures@."
    r.i_iters r.i_sat r.i_unsat r.i_certified r.i_alloc_solved
    r.i_alloc_infeasible
    (List.length r.i_failures);
  List.iter (fun f -> Fmt.pf ppf "FAILURE: %s@." f) r.i_failures
