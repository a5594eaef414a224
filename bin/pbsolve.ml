(* Pseudo-Boolean solver CLI for the OPB-like format accepted by
   {!Taskalloc_pb.Opb}:

     * comment
     +2 x1 +3 x2 -1 x3 >= 2 ;
     +1 x1 +1 x4 = 1 ;

   Usage:  pbsolve [--jobs N|auto] [--trace FILE] [--metrics FILE]
                   [--progress] FILE.opb

   --jobs N ("auto" resolves to Domain.recommended_domain_count) races
   N diversified solvers on OCaml domains; 1 (the default) is exactly
   the sequential solver. *)

open Taskalloc_sat
open Taskalloc_pb
module Portfolio = Taskalloc_portfolio.Portfolio
module Obs = Taskalloc_obs.Obs

let usage () =
  prerr_endline
    "usage: pbsolve [--jobs N|auto] [--trace FILE] [--metrics FILE] \
     [--progress] FILE.opb";
  exit 2

let () =
  let trace = ref None and metrics = ref None and progress = ref false in
  let jobs = ref 1 in
  let path = ref None in
  let rec go = function
    | [] -> ()
    | "--jobs" :: "auto" :: rest ->
      jobs := Domain.recommended_domain_count ();
      go rest
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some n when n >= 1 ->
        jobs := n;
        go rest
      | _ -> usage ())
    | "--trace" :: f :: rest ->
      trace := Some f;
      go rest
    | "--metrics" :: f :: rest ->
      metrics := Some f;
      go rest
    | "--progress" :: rest ->
      progress := true;
      go rest
    | arg :: rest when !path = None && String.length arg > 0 && arg.[0] <> '-' ->
      path := Some arg;
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  let path = match !path with Some p -> p | None -> usage () in
  Obs.sinks_at_exit ~trace:!trace ~metrics:!metrics;
  if !progress then
    Obs.set_sample_hook
      (Some
         (fun name kvs ->
           if name = "solver.progress" then begin
             let get k = Option.value ~default:0. (List.assoc_opt k kvs) in
             Printf.eprintf
               "c progress: %.0f conflicts (%.0f/s), %.0f props/s, trail %.0f\n%!"
               (get "conflicts") (get "conflicts_per_s")
               (get "propagations_per_s") (get "trail")
           end))
  ;
  (* parse once up front so a syntax error is reported before any
     worker domain spawns; extra workers re-parse the (now known-good)
     file, which builds the identical formula *)
  let solver0, vars0 =
    Obs.span "parse" (fun () ->
        try Opb.parse_file path
        with Opb.Parse_error { line; message } ->
          Printf.eprintf "%s:%d: %s\n" path line message;
          exit 2)
  in
  (* an unlimited budget arms no tripwire but gives progress sampling
     its checkpoint cadence *)
  let budget =
    if Obs.on () || Obs.sample_hook_installed () then Some (Budget.create ())
    else None
  in
  let build i =
    let solver, vars = if i = 0 then (solver0, vars0) else Opb.parse_file path in
    ((solver, vars), solver)
  in
  let outcome =
    Obs.span "solve" (fun () -> Portfolio.solve ?budget ~jobs:!jobs ~build ())
  in
  if !jobs > 1 then
    Printf.printf "c portfolio: %d workers, winner=%d\n" !jobs
      outcome.Portfolio.winner;
  match (outcome.Portfolio.result, outcome.Portfolio.payload) with
  | Solver.Sat, Some (solver, vars) ->
    print_endline "s SATISFIABLE";
    let entries =
      Hashtbl.fold (fun name v acc -> (name, v) :: acc) vars []
      |> List.sort (fun (a, _) (b, _) -> compare a b)
    in
    List.iter
      (fun (name, v) ->
        Printf.printf "v %s%s\n"
          (if Solver.model_value solver (Lit.of_var v) then "" else "-")
          name)
      entries
  | Solver.Unsat, _ ->
    print_endline "s UNSATISFIABLE";
    exit 20
  | _ ->
    print_endline "s UNKNOWN";
    exit 30
