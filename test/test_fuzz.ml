(* Property-based differential tests: the solver against a brute-force
   oracle on random CNF and PB instances, Sat models re-evaluated and
   Unsat answers certified by the proof checker.  Failing seeds are
   printed so a report line reproduces the exact case. *)

module Fuzz = Taskalloc_fuzz.Fuzz

let qcheck_case name count gen =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count ~name
       QCheck.(small_nat)
       (fun seed ->
         match Fuzz.check_case (gen seed) with
         | Ok () -> true
         | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e))

let test_determinism () =
  let a = Fuzz.gen_case ~seed:42 ~max_vars:10 in
  let b = Fuzz.gen_case ~seed:42 ~max_vars:10 in
  Alcotest.(check bool) "same seed, same case" true (a = b);
  Alcotest.(check bool) "seed parity selects kind" true
    (match (Fuzz.gen_case ~seed:4 ~max_vars:6, Fuzz.gen_case ~seed:5 ~max_vars:6) with
    | Fuzz.Cnf _, Fuzz.Pb _ -> true
    | _ -> false)

let test_oracle_sanity () =
  let unsat = Fuzz.Cnf { Taskalloc_sat.Dimacs.num_vars = 1; clauses = [ [ 1 ]; [ -1 ] ] } in
  let sat = Fuzz.Cnf { Taskalloc_sat.Dimacs.num_vars = 2; clauses = [ [ 1; -2 ] ] } in
  Alcotest.(check bool) "contradiction unsat" false (Fuzz.oracle unsat);
  Alcotest.(check bool) "single clause sat" true (Fuzz.oracle sat);
  let pb_unsat =
    Fuzz.Pb
      {
        Fuzz.pb_vars = 2;
        constraints =
          [
            { Taskalloc_proof.Proof.terms = [ (1, 1); (1, 2) ]; degree = 3 };
          ];
      }
  in
  Alcotest.(check bool) "unachievable degree unsat" false (Fuzz.oracle pb_unsat)

let test_shrink_keeps_passing_case () =
  let case = Fuzz.gen_case ~seed:7 ~max_vars:6 in
  Alcotest.(check bool) "case passes" true (Fuzz.check_case case = Ok ());
  Alcotest.(check bool) "shrink is identity on passing cases" true
    (Fuzz.shrink case = case)

let test_campaign_clean () =
  let report = Fuzz.run ~iters:60 ~seed:1 () in
  Alcotest.(check int) "all iterations ran" 60 report.Fuzz.iters;
  Alcotest.(check bool) "both polarities exercised" true
    (report.Fuzz.n_sat > 0 && report.Fuzz.n_unsat > 0);
  Alcotest.(check int) "no discrepancies" 0 (List.length report.Fuzz.failures)

let test_campaign_portfolio () =
  (* the certifying interlock under parallel solving: every case is
     raced by 2 workers, the winner's Unsat trace must still certify *)
  let report = Fuzz.run ~jobs:2 ~iters:40 ~seed:3 () in
  Alcotest.(check int) "all iterations ran" 40 report.Fuzz.iters;
  Alcotest.(check bool) "both polarities exercised" true
    (report.Fuzz.n_sat > 0 && report.Fuzz.n_unsat > 0);
  Alcotest.(check int) "no discrepancies" 0 (List.length report.Fuzz.failures)

let test_campaign_large_instances () =
  (* push to the 16-var oracle limit to stress PB propagation depth *)
  let report = Fuzz.run ~max_vars:14 ~iters:25 ~seed:2 () in
  Alcotest.(check int) "no discrepancies" 0 (List.length report.Fuzz.failures)

let test_disruption_campaign () =
  let report = Fuzz.run_disruptions ~iters:25 ~seed:5 () in
  Alcotest.(check int) "all campaigns ran" 25 report.Fuzz.d_iters;
  Alcotest.(check bool) "events injected" true (report.Fuzz.d_events > 0);
  Alcotest.(check bool) "oracle exercised" true
    (report.Fuzz.d_oracle_checked > 0);
  Alcotest.(check int) "no unknowns without a budget" 0 report.Fuzz.d_unknown;
  Alcotest.(check (list string)) "no failures" [] report.Fuzz.d_failures

(* campaign results must be independent of how iterations are spread
   over domains: only wall time may differ *)
let test_jobs_invariant run counters failures () =
  let a = run ~jobs:1 and b = run ~jobs:2 in
  Alcotest.(check (list string)) "no failures" [] (failures b);
  Alcotest.(check (list int)) "jobs-invariant counters" (counters a) (counters b);
  Alcotest.(check (list string)) "jobs-invariant failures"
    (List.sort compare (failures a))
    (List.sort compare (failures b))

let test_disruption_campaign_parallel =
  test_jobs_invariant
    (fun ~jobs -> Fuzz.run_disruptions ~jobs ~iters:12 ~seed:9 ())
    (fun r ->
      Fuzz.
        [
          r.d_iters;
          r.d_events;
          r.d_repaired;
          r.d_degraded;
          r.d_irreparable;
          r.d_unknown;
          r.d_skipped;
          r.d_oracle_checked;
        ])
    (fun r -> r.Fuzz.d_failures)

let test_lazy_campaign_parallel =
  test_jobs_invariant
    (fun ~jobs -> Fuzz.run_lazy ~jobs ~iters:10 ~seed:5 ())
    (fun r ->
      Fuzz.[ r.l_iters; r.l_sat; r.l_unsat; r.l_unknown; r.l_eager_vars; r.l_lazy_vars ])
    (fun r -> r.Fuzz.l_failures)

let test_inprocess_campaign_parallel =
  test_jobs_invariant
    (fun ~jobs -> Fuzz.run_inprocess ~jobs ~iters:10 ~seed:11 ())
    (fun r ->
      Fuzz.
        [
          r.i_iters;
          r.i_sat;
          r.i_unsat;
          r.i_certified;
          r.i_alloc_solved;
          r.i_alloc_infeasible;
        ])
    (fun r -> r.Fuzz.i_failures)

let test_inprocess_campaign () =
  (* differential: each case solved with and without the inprocessing
     passes must agree, inprocessed Unsat traces must certify, and the
     allocation legs must reach identical proven optima (the
     frozen-variable interface end to end) *)
  let report = Fuzz.run_inprocess ~iters:20 ~seed:11 () in
  Alcotest.(check int) "all iterations ran" 20 report.Fuzz.i_iters;
  Alcotest.(check bool) "both polarities exercised" true
    (report.Fuzz.i_sat > 0 && report.Fuzz.i_unsat > 0);
  Alcotest.(check int) "every inprocessed unsat trace certified"
    report.Fuzz.i_unsat report.Fuzz.i_certified;
  Alcotest.(check bool) "allocation legs exercised" true
    (report.Fuzz.i_alloc_solved > 0);
  Alcotest.(check (list string)) "no discrepancies" [] report.Fuzz.i_failures

let suite =
  [
    Alcotest.test_case "generator determinism" `Quick test_determinism;
    Alcotest.test_case "oracle sanity" `Quick test_oracle_sanity;
    Alcotest.test_case "shrink identity on pass" `Quick test_shrink_keeps_passing_case;
    qcheck_case "cnf differential vs oracle" 150 (fun seed ->
        Fuzz.Cnf (Fuzz.gen_cnf ~seed ~max_vars:10));
    qcheck_case "pb differential vs oracle" 150 (fun seed ->
        Fuzz.Pb (Fuzz.gen_pb ~seed ~max_vars:10));
    Alcotest.test_case "campaign 60 iters clean" `Slow test_campaign_clean;
    Alcotest.test_case "campaign large instances" `Slow test_campaign_large_instances;
    Alcotest.test_case "campaign with 2-worker portfolio" `Slow
      test_campaign_portfolio;
    Alcotest.test_case "disruption campaign vs oracle" `Slow
      test_disruption_campaign;
    Alcotest.test_case "disruption campaign over 2 domains" `Slow
      test_disruption_campaign_parallel;
    Alcotest.test_case "lazy campaign over 2 domains" `Slow test_lazy_campaign_parallel;
    Alcotest.test_case "inprocessing campaign over 2 domains" `Slow
      test_inprocess_campaign_parallel;
    Alcotest.test_case "inprocessing differential campaign" `Slow
      test_inprocess_campaign;
  ]
