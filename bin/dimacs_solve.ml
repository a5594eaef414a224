(* Standalone DIMACS CNF solver built on the taskalloc CDCL engine.

   Usage:  dimacs_solve [--proof FILE [--binary]] [--jobs N|auto]
                        [--parallel portfolio|cubes|auto] [--stats]
                        [--assume FILE] FILE.cnf
           dimacs_solve --check PROOF FILE.cnf
   Prints "s SATISFIABLE" with a "v ..." model line, or "s UNSATISFIABLE",
   in the conventional SAT-competition output format (exit 20 on Unsat,
   30 on Unknown).  With --proof, an Unsat run also writes a DRUP trace;
   --check replays such a trace through the independent RUP checker and
   prints "s VERIFIED" (exit 0) or "s NOT VERIFIED" (exit 1).

   --assume FILE solves under the assumptions listed in FILE
   (whitespace-separated DIMACS literals; zeros and "c"-comment lines
   are ignored).  An Unsat answer then prints the failed-assumption
   core as a "c core" line: a subset of the assumptions that is already
   jointly inconsistent with the formula (empty when the formula is
   unsatisfiable outright).  Assumptions compose with --jobs: every
   portfolio worker solves under the same assumptions (their learnt
   clauses mention the assumption negations explicitly, so sharing
   stays sound) and the winner's core is reported.  They remain
   incompatible with --proof (a trace under assumptions refutes the
   formula plus the assumptions, not the formula the checker reads)
   and with --parallel cubes (the cube partition replaces the
   assumption mechanism).

   --jobs N ("auto" resolves to Domain.recommended_domain_count) runs
   N workers on OCaml domains.  --parallel picks the strategy:
   "portfolio" (the default, and what "auto" means for a raw CNF,
   which carries no structural splitting hints) races diversified
   solvers, first conclusive worker wins; "cubes" partitions the
   instance by lookahead over the VSIDS leaders and drains the cube
   queue with work stealing.  With --proof, portfolio workers record
   self-contained traces (clause import is disabled for them) and the
   winning trace verifies; in cube mode the per-cube refutations are
   tagged with their cube and stitched into one trace ending in the
   empty clause, which verifies against the original formula.
   --stats prints search counters, their clause/PB attribution and
   learnt-DB and LBD statistics (per worker in portfolio mode, per cube
   in cube mode). *)

open Taskalloc_sat
module Proof = Taskalloc_proof.Proof
module Portfolio = Taskalloc_portfolio.Portfolio
module Obs = Taskalloc_obs.Obs

let usage () =
  prerr_endline
    "usage: dimacs_solve [--proof FILE [--binary]] [--jobs N|auto] [--stats] \
     [--assume FILE]\n\
    \                    [--parallel portfolio|cubes|auto]\n\
    \                    [--trace FILE] [--metrics FILE] [--progress] FILE.cnf\n\
    \       dimacs_solve --check PROOF [--binary] FILE.cnf";
  exit 2

type opts = {
  mutable proof : string option;
  mutable check : string option;
  mutable binary : bool;
  mutable jobs : int;
  mutable parallel : [ `Auto | `Portfolio | `Cubes ];
  mutable stats : bool;
  mutable assume : string option;
  mutable cnf : string option;
  mutable trace : string option;
  mutable metrics : string option;
  mutable progress : bool;
}

let parse_args () =
  let o =
    { proof = None; check = None; binary = false; jobs = 1;
      parallel = `Auto; stats = false; assume = None; cnf = None;
      trace = None; metrics = None; progress = false }
  in
  let rec go = function
    | [] -> ()
    | "--proof" :: file :: rest ->
      o.proof <- Some file;
      go rest
    | "--check" :: file :: rest ->
      o.check <- Some file;
      go rest
    | "--assume" :: file :: rest ->
      o.assume <- Some file;
      go rest
    | "--binary" :: rest ->
      o.binary <- true;
      go rest
    | "--jobs" :: "auto" :: rest ->
      o.jobs <- Domain.recommended_domain_count ();
      go rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        o.jobs <- n;
        go rest
      | _ -> usage ())
    | "--parallel" :: p :: rest -> (
      match p with
      | "auto" -> o.parallel <- `Auto; go rest
      | "portfolio" -> o.parallel <- `Portfolio; go rest
      | "cubes" -> o.parallel <- `Cubes; go rest
      | _ -> usage ())
    | "--stats" :: rest ->
      o.stats <- true;
      go rest
    | "--trace" :: file :: rest ->
      o.trace <- Some file;
      go rest
    | "--metrics" :: file :: rest ->
      o.metrics <- Some file;
      go rest
    | "--progress" :: rest ->
      o.progress <- true;
      go rest
    | arg :: rest when o.cnf = None && String.length arg > 0 && arg.[0] <> '-' ->
      o.cnf <- Some arg;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if o.proof <> None && o.check <> None then usage ();
  (* a DRUP trace recorded under assumptions refutes F plus the
     assumptions, not the formula F the checker reads, so it would not
     verify; cube mode replaces the assumption mechanism with the cube
     partition (cubes ARE the per-worker assumptions) *)
  if o.assume <> None && (o.proof <> None || o.check <> None) then begin
    prerr_endline "dimacs_solve: --assume is incompatible with --proof and --check";
    exit 2
  end;
  if o.assume <> None && o.parallel = `Cubes then begin
    prerr_endline
      "dimacs_solve: --assume requires --parallel portfolio (cube mode uses \
       the cube partition as its assumptions)";
    exit 2
  end;
  o

(* --stats also turns the metrics registry on so the snapshot printed
   after the standard stat lines has data to draw from. *)
let obs_setup o =
  Obs.sinks_at_exit ~trace:o.trace ~metrics:o.metrics;
  if o.stats then Obs.enable ~tracing:(Obs.tracing_on ()) ~metrics:true ();
  if o.progress then
    Obs.set_sample_hook
      (Some
         (fun name kvs ->
           if name = "solver.progress" then begin
             let get k = Option.value ~default:0. (List.assoc_opt k kvs) in
             Printf.eprintf
               "c progress: %.0f conflicts (%.0f/s), %.0f props/s, trail \
                %.0f, lbd %.1f\n%!"
               (get "conflicts") (get "conflicts_per_s")
               (get "propagations_per_s") (get "trail") (get "avg_lbd")
           end))

(* Progress sampling rides on the budget checkpoint; an unlimited
   budget arms no tripwire (and costs no syscalls) but gives the
   sampler its cadence. *)
let obs_budget () =
  if Obs.on () || Obs.sample_hook_installed () then Some (Budget.create ())
  else None

(* Metrics snapshot appended after the classic stat lines (satellite of
   the observability layer): solver throughput distributions and the
   per-phase wall-clock breakdown. *)
let print_obs_stats () =
  let hist name label =
    match Obs.Metrics.get_hist name with
    | Some h when Obs.Hist.count h > 0 ->
      Printf.printf
        "c %s: mean=%.0f min=%d p50=%d p95=%d p99=%d max=%d (%d samples)\n"
        label (Obs.Hist.mean h) (Obs.Hist.min_value h)
        (Obs.Hist.quantile h 0.5) (Obs.Hist.quantile h 0.95)
        (Obs.Hist.quantile h 0.99) (Obs.Hist.max_value h) (Obs.Hist.count h)
    | _ -> ()
  in
  hist "solver.conflicts_per_s" "conflicts/s";
  hist "solver.propagations_per_s" "propagations/s";
  hist "solver.trail_depth" "trail depth";
  match Obs.phase_breakdown () with
  | [] -> ()
  | phases ->
    Printf.printf "c time-in-phase:%s\n"
      (String.concat ""
         (List.map (fun (n, s) -> Printf.sprintf " %s=%.3fs" n s) phases))

(* Whitespace-separated DIMACS literals; zeros (clause terminators, if
   any) and "c" comment lines are ignored. *)
let parse_assumptions ~num_vars path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let lits = ref [] in
      (try
         while true do
           let line = input_line ic in
           if not (String.length line > 0 && line.[0] = 'c') then
             String.split_on_char ' ' line
             |> List.concat_map (String.split_on_char '\t')
             |> List.iter (fun tok ->
                    match String.trim tok with
                    | "" | "0" -> ()
                    | tok -> (
                      match int_of_string_opt tok with
                      | Some n when abs n <= num_vars ->
                        lits := Lit.of_dimacs n :: !lits
                      | Some n ->
                        Printf.eprintf
                          "dimacs_solve: %s: assumption literal %d out of range \
                           (formula has %d variables)\n"
                          path n num_vars;
                        exit 2
                      | None ->
                        Printf.eprintf "dimacs_solve: %s: bad literal %S\n" path tok;
                        exit 2))
         done
       with End_of_file -> ());
      Array.of_list (List.rev !lits))

let print_solver_stats ~prefix s =
  Printf.printf "c %sconflicts=%d decisions=%d propagations=%d restarts=%d\n"
    prefix (Solver.n_conflicts s) (Solver.n_decisions s)
    (Solver.n_propagations s) (Solver.n_restarts s);
  Printf.printf
    "c %sattribution: clause_props=%d pb_props=%d clause_conflicts=%d \
     pb_conflicts=%d\n"
    prefix (Solver.n_clause_props s) (Solver.n_pb_props s)
    (Solver.n_clause_conflicts s) (Solver.n_pb_conflicts s);
  let { Solver.live; glue; avg_lbd; max_lbd } = Solver.lbd_summary s in
  Printf.printf
    "c %slearnts: total=%d live=%d glue=%d avg_lbd=%.2f max_lbd=%d \
     reduce_dbs=%d imported=%d\n"
    prefix (Solver.n_learnt_total s) live glue avg_lbd max_lbd
    (Solver.n_reduce_dbs s) (Solver.n_imported s)

let print_model cnf solver =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "v";
  for v = 0 to cnf.Dimacs.num_vars - 1 do
    let value = Solver.model_value solver (Lit.of_var v) in
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int (if value then v + 1 else -(v + 1)))
  done;
  Buffer.add_string buf " 0";
  print_endline (Buffer.contents buf)

let build_solver cnf ~proof _w =
  let solver = Solver.create () in
  Solver.set_proof_sink solver proof;
  for _ = 1 to cnf.Dimacs.num_vars do
    ignore (Solver.new_var solver)
  done;
  List.iter
    (fun c -> Solver.add_clause solver (List.map Lit.of_dimacs c))
    cnf.Dimacs.clauses;
  solver

(* Assumption solving rides the same portfolio as plain solving:
   every worker assumes the same literals ([Portfolio.solve]'s
   contract makes clause sharing sound under them) and the winner's
   failed-assumption core is the one reported.  jobs = 1 is the plain
   sequential solver, bit for bit. *)
let solve_assume cnf_path assume_path jobs stats =
  let cnf = Obs.span "parse" (fun () -> Dimacs.parse_file cnf_path) in
  let assumptions = parse_assumptions ~num_vars:cnf.Dimacs.num_vars assume_path in
  Printf.printf "c %d assumptions from %s\n" (Array.length assumptions) assume_path;
  let build w =
    let s = build_solver cnf ~proof:None w in
    (s, s)
  in
  let outcome =
    Obs.span "solve" (fun () ->
        Portfolio.solve ?budget:(obs_budget ()) ~jobs
          ~assumptions:(Array.to_list assumptions) ~build ())
  in
  if jobs > 1 then
    Printf.printf "c portfolio: %d workers, winner=%d\n" jobs
      outcome.Portfolio.winner;
  match (outcome.Portfolio.result, outcome.Portfolio.payload) with
  | Solver.Sat, Some solver ->
    print_endline "s SATISFIABLE";
    print_model cnf solver;
    if stats then begin
      print_solver_stats ~prefix:"" solver;
      print_obs_stats ()
    end
  | Solver.Unsat, Some solver ->
    let core = Solver.unsat_core solver in
    if stats then begin
      print_solver_stats ~prefix:"" solver;
      print_obs_stats ()
    end;
    print_endline "s UNSATISFIABLE";
    let buf = Buffer.create 64 in
    Buffer.add_string buf "c core";
    List.iter
      (fun l ->
        Buffer.add_char buf ' ';
        Buffer.add_string buf (string_of_int (Lit.to_dimacs l)))
      core;
    Buffer.add_string buf " 0";
    print_endline (Buffer.contents buf);
    exit 20
  | _ ->
    print_endline "s UNKNOWN";
    exit 30

let write_proof path binary trace =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      if binary then Proof.write_binary oc trace else Proof.write_text oc trace);
  Printf.printf "c proof written to %s\n" path

let solve_portfolio cnf proof_path binary jobs stats =
  let build _i =
    let solver = Solver.create () in
    let trace =
      match proof_path with
      | None -> fun () -> []
      | Some _ -> Proof.record solver
    in
    for _ = 1 to cnf.Dimacs.num_vars do
      ignore (Solver.new_var solver)
    done;
    List.iter
      (fun c -> Solver.add_clause solver (List.map Lit.of_dimacs c))
      cnf.Dimacs.clauses;
    ((solver, trace), solver)
  in
  let outcome =
    Obs.span "solve" (fun () ->
        Portfolio.solve ?budget:(obs_budget ()) ~jobs ~build ())
  in
  if jobs > 1 then
    Printf.printf "c portfolio: %d workers, winner=%d\n" jobs outcome.Portfolio.winner;
  if stats then
    Array.iter
      (fun (w : Portfolio.worker_stats) ->
        let prefix = if jobs > 1 then Printf.sprintf "w%d " w.worker else "" in
        Printf.printf "c %sshared: out=%d in=%d\n" prefix w.shared_out w.shared_in)
      outcome.Portfolio.workers;
  match (outcome.Portfolio.result, outcome.Portfolio.payload) with
  | Solver.Sat, Some (solver, _) ->
    print_endline "s SATISFIABLE";
    print_model cnf solver;
    Printf.printf "c conflicts=%d decisions=%d propagations=%d\n"
      (Solver.n_conflicts solver) (Solver.n_decisions solver)
      (Solver.n_propagations solver);
    if stats then begin
      print_solver_stats ~prefix:"" solver;
      print_obs_stats ()
    end
  | Solver.Unsat, Some (solver, trace) ->
    (match proof_path with
    | None -> ()
    | Some path -> write_proof path binary (trace ()));
    if stats then begin
      print_solver_stats ~prefix:"" solver;
      print_obs_stats ()
    end;
    print_endline "s UNSATISFIABLE";
    exit 20
  | _ ->
    print_endline "s UNKNOWN";
    exit 30

(* Cube-and-conquer: lookahead over the VSIDS leaders partitions the
   instance, workers drain the cube queue with work stealing.  With
   --proof the per-cube refutations arrive tagged with their negated
   cube and the final merge tree closes the trace to the empty clause;
   the sink below only collects (Portfolio serializes calls), so the
   stitched trace verifies against the original formula. *)
let solve_cubes cnf proof_path binary jobs stats =
  let steps = ref [] in
  let sink =
    match proof_path with
    | None -> None
    | Some _ -> Some (fun st -> steps := Proof.of_solver_step st :: !steps)
  in
  let outcome =
    Obs.span "solve" (fun () ->
        Portfolio.solve_cubes ?budget:(obs_budget ()) ~jobs ?proof:sink
          ~build:(fun ~proof w ->
            let s = build_solver cnf ~proof w in
            (s, s))
          ())
  in
  Printf.printf "c cubes: %d generated, %d refuted, winner=%d\n"
    outcome.Portfolio.n_cubes outcome.Portfolio.unsat_cubes
    outcome.Portfolio.c_winner;
  if stats then
    List.iter
      (fun (c : Portfolio.cube_stats) ->
        Printf.printf "c cube %d: worker=%d %s conflicts=%d%s\n"
          c.Portfolio.cube_index c.Portfolio.cube_worker
          (match c.Portfolio.cube_result with
          | Solver.Sat -> "SAT"
          | Solver.Unsat -> "UNSAT"
          | Solver.Unknown -> "UNKNOWN")
          c.Portfolio.cube_conflicts
          (if c.Portfolio.cube_stolen then " (stolen)" else ""))
      outcome.Portfolio.cube_details;
  match (outcome.Portfolio.c_result, outcome.Portfolio.c_payload) with
  | Solver.Sat, Some solver ->
    print_endline "s SATISFIABLE";
    print_model cnf solver;
    if stats then begin
      print_solver_stats ~prefix:"" solver;
      print_obs_stats ()
    end
  | Solver.Unsat, _ ->
    (match proof_path with
    | None -> ()
    | Some path -> write_proof path binary (List.rev !steps));
    if stats then print_obs_stats ();
    print_endline "s UNSATISFIABLE";
    exit 20
  | _ ->
    print_endline "s UNKNOWN";
    exit 30

let solve cnf_path proof_path binary jobs parallel stats =
  let cnf = Obs.span "parse" (fun () -> Dimacs.parse_file cnf_path) in
  match parallel with
  (* a raw CNF exports no structural decision hints, so auto means the
     portfolio (mirroring Allocator's rule: cubes only on hints) *)
  | `Auto | `Portfolio -> solve_portfolio cnf proof_path binary jobs stats
  | `Cubes -> solve_cubes cnf proof_path binary jobs stats

let check proof_path cnf_path binary =
  let cnf = Dimacs.parse_file cnf_path in
  let trace = Proof.read_file ~binary proof_path in
  match Proof.verify cnf trace with
  | Proof.Valid -> print_endline "s VERIFIED"
  | Proof.Invalid _ as v ->
    Fmt.pr "c %a@." Proof.pp_verdict v;
    print_endline "s NOT VERIFIED";
    exit 1

let () =
  let o = parse_args () in
  obs_setup o;
  match (o.cnf, o.check, o.assume) with
  | Some cnf_path, Some proof_path, None -> check proof_path cnf_path o.binary
  | Some cnf_path, None, Some assume_path ->
    solve_assume cnf_path assume_path o.jobs o.stats
  | Some cnf_path, None, None ->
    solve cnf_path o.proof o.binary o.jobs o.parallel o.stats
  | _ -> usage ()
