(* Tests of the benchmark's statistics helpers. *)

module Json = Taskalloc_server.Json
open Perfbench_stats

let floats = List.map float_of_int
let close = Alcotest.float 1e-9

let test_median () =
  Alcotest.check close "odd" 3. (Stats.median (floats [ 5; 1; 3 ]));
  Alcotest.check close "even" 2.5 (Stats.median (floats [ 4; 1; 3; 2 ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.median: empty")
    (fun () -> ignore (Stats.median []))

let test_tail_rule () =
  let pm = Alcotest.(option int) in
  Alcotest.check pm "19 samples: no tail" None (Stats.tail_permille 19);
  Alcotest.check pm "20 samples: p50" (Some 500) (Stats.tail_permille 20);
  Alcotest.check pm "99 samples: p75" (Some 750) (Stats.tail_permille 99);
  Alcotest.check pm "100 samples: p90" (Some 900) (Stats.tail_permille 100);
  Alcotest.check pm "199 samples: p90" (Some 900) (Stats.tail_permille 199);
  Alcotest.check pm "200 samples: p95" (Some 950) (Stats.tail_permille 200);
  Alcotest.check pm "1000 samples: p99" (Some 990) (Stats.tail_permille 1000);
  Alcotest.check pm "10000 samples: p99.9" (Some 999) (Stats.tail_permille 10000);
  (* the rule itself: at least 10 samples strictly beyond the rank *)
  for n = 1 to 3000 do
    match Stats.tail_permille n with
    | None -> ()
    | Some p ->
      let xs = floats (List.init n (fun i -> i + 1)) in
      let v = int_of_float (Stats.percentile xs p) in
      if n - v < 10 then Alcotest.failf "n=%d p=%d leaves %d beyond" n p (n - v)
  done

let test_percentile () =
  let xs = floats (List.init 100 (fun i -> 100 - i)) in
  Alcotest.check close "p90 of 1..100" 90. (Stats.percentile xs 900);
  Alcotest.check close "p50 of 1..100" 50. (Stats.percentile xs 500);
  Alcotest.check close "p99.9 of 1..100" 100. (Stats.percentile xs 999);
  Alcotest.(check (option (pair int close)))
    "tail of 1..100" (Some (900, 90.)) (Stats.tail xs)

let test_geomean () =
  Alcotest.check close "2 and 8" 4. (Stats.geomean [ 2.; 8. ]);
  Alcotest.check close "constant" 7. (Stats.geomean [ 7.; 7.; 7. ]);
  Alcotest.check (Alcotest.float 1e-6) "1, 10, 100" 10. (Stats.geomean [ 1.; 10.; 100. ]);
  Alcotest.check_raises "zero" (Invalid_argument "Stats.geomean: non-positive value")
    (fun () -> ignore (Stats.geomean [ 1.; 0. ]));
  Alcotest.check_raises "empty" (Invalid_argument "Stats.geomean: empty")
    (fun () -> ignore (Stats.geomean []))

let test_failed_frac () =
  let answers =
    [
      Stats.Answer (Json.parse {|{"ok":true,"cost":3}|});
      Stats.Answer (Json.parse {|{"ok":false,"error":"overloaded"}|});
      Stats.Answer (Json.parse {|{"ok":false,"error":"shutting_down"}|});
      Stats.Answer (Json.parse {|{"cost":3}|});
      Stats.Refused "connection refused";
      Stats.Answer (Json.parse {|{"ok":true}|});
    ]
  in
  Alcotest.(check (list bool))
    "classification" [ false; true; true; true; true; false ]
    (List.map Stats.answer_failed answers);
  let failed = List.length (List.filter Stats.answer_failed answers) in
  Alcotest.check close "4 of 6"
    (4. /. 6.)
    (Stats.failed_frac ~attempted:(List.length answers) ~failed);
  Alcotest.check close "none" 0. (Stats.failed_frac ~attempted:5 ~failed:0);
  Alcotest.check_raises "nothing attempted" (Invalid_argument "Stats.failed_frac")
    (fun () -> ignore (Stats.failed_frac ~attempted:0 ~failed:0))

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "median" `Quick test_median;
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "geometric mean" `Quick test_geomean;
          Alcotest.test_case "failed fraction" `Quick test_failed_frac;
        ] );
    ]
