(* Unit and property tests for the CDCL+PB solver. *)

open Taskalloc_sat

let lit v = Lit.of_var v
let nlit v = Lit.of_var ~sign:false v

let check_result = Alcotest.testable (fun ppf -> function
    | Solver.Sat -> Fmt.string ppf "Sat"
    | Solver.Unsat -> Fmt.string ppf "Unsat"
    | Solver.Unknown -> Fmt.string ppf "Unknown")
    ( = )

let test_trivial_sat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ lit v ];
  Alcotest.check check_result "x" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "model x" true (Solver.model_value s (lit v))

let test_trivial_unsat () =
  let s = Solver.create () in
  let v = Solver.new_var s in
  Solver.add_clause s [ lit v ];
  Solver.add_clause s [ nlit v ];
  Alcotest.check check_result "x & ~x" Solver.Unsat (Solver.solve s)

let test_empty_clause () =
  let s = Solver.create () in
  ignore (Solver.new_var s);
  Solver.add_clause s [];
  Alcotest.check check_result "empty clause" Solver.Unsat (Solver.solve s)

let test_unit_propagation_chain () =
  let s = Solver.create () in
  let n = 50 in
  let vs = Array.init n (fun _ -> Solver.new_var s) in
  Solver.add_clause s [ lit vs.(0) ];
  for i = 0 to n - 2 do
    Solver.add_clause s [ nlit vs.(i); lit vs.(i + 1) ]
  done;
  Alcotest.check check_result "chain" Solver.Sat (Solver.solve s);
  for i = 0 to n - 1 do
    Alcotest.(check bool) (Printf.sprintf "v%d" i) true (Solver.model_value s (lit vs.(i)))
  done

let test_simple_3sat () =
  (* (a | b) & (~a | c) & (~b | c) & ~c is unsat; without ~c sat *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ lit a; lit b ];
  Solver.add_clause s [ nlit a; lit c ];
  Solver.add_clause s [ nlit b; lit c ];
  Alcotest.check check_result "sat part" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ nlit c ];
  Alcotest.check check_result "plus ~c" Solver.Unsat (Solver.solve s)

let pigeonhole ~pigeons ~holes =
  (* unsat iff pigeons > holes; classic hard family *)
  let s = Solver.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> lit x.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ nlit x.(p1).(h); nlit x.(p2).(h) ]
      done
    done
  done;
  Solver.solve s

let test_pigeonhole () =
  Alcotest.check check_result "php(6,5) unsat" Solver.Unsat (pigeonhole ~pigeons:6 ~holes:5);
  Alcotest.check check_result "php(5,5) sat" Solver.Sat (pigeonhole ~pigeons:5 ~holes:5)

let test_assumptions () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ nlit a; lit b ];
  Alcotest.check check_result "assume a" Solver.Sat
    (Solver.solve ~assumptions:[ lit a ] s);
  Alcotest.(check bool) "b forced" true (Solver.model_value s (lit b));
  Solver.add_clause s [ nlit b ];
  Alcotest.check check_result "assume a, now unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a ] s);
  Alcotest.check check_result "without assumption still sat" Solver.Sat
    (Solver.solve s);
  Alcotest.(check bool) "a false in model" false (Solver.model_value s (lit a))

let test_assumption_reuse () =
  (* assumptions must not leave permanent marks *)
  let s = Solver.create () in
  let a = Solver.new_var s in
  Alcotest.check check_result "assume a" Solver.Sat (Solver.solve ~assumptions:[ lit a ] s);
  Alcotest.check check_result "assume ~a" Solver.Sat (Solver.solve ~assumptions:[ nlit a ] s);
  Alcotest.check check_result "assume both" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a; nlit a ] s)

let test_unsat_core () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ nlit a; nlit b ];
  Alcotest.check check_result "assume a b c" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a; lit b; lit c ] s);
  let core = Solver.unsat_core s in
  Alcotest.(check bool) "core subset of assumptions" true
    (List.for_all (fun l -> List.mem l [ lit a; lit b; lit c ]) core);
  Alcotest.(check bool) "core nonempty" true (core <> []);
  Alcotest.(check bool) "c not needed" true (not (List.mem (lit c) core));
  (* the core must be unsat when re-assumed in isolation *)
  Alcotest.check check_result "core re-solves to unsat" Solver.Unsat
    (Solver.solve ~assumptions:core s)

let test_unsat_core_falsified_assumption () =
  (* an assumption already false by propagation must appear in the core *)
  let s = Solver.create () in
  let a = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ nlit c ];
  Alcotest.check check_result "assume a c" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a; lit c ] s);
  Alcotest.(check bool) "core is [c]" true (Solver.unsat_core s = [ lit c ])

let test_unsat_core_unconditional () =
  (* a formula unsat on its own yields an empty core *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit a ];
  Solver.add_clause s [ nlit a ];
  Alcotest.check check_result "unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ lit b ] s);
  Alcotest.(check bool) "empty core" true (Solver.unsat_core s = [])

let test_unsat_core_cleared () =
  (* unsat_core is only available right after an Unsat answer, and an
     assumption-Unsat episode must not poison the next plain solve *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ nlit a; lit b ];
  (match Solver.unsat_core s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat_core before any solve should raise");
  Alcotest.check check_result "assumption unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a; nlit b ] s);
  Alcotest.(check bool) "core available" true (Solver.unsat_core s <> []);
  Alcotest.check check_result "plain solve recovers" Solver.Sat (Solver.solve s);
  (match Solver.unsat_core s with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unsat_core after Sat should raise")

let prop_unsat_core_valid =
  (* on random CNF + random assumptions: whenever the solver answers
     Unsat with a non-empty core, re-assuming just the core is Unsat *)
  let gen =
    QCheck.Gen.(
      let* num_vars = int_range 2 8 in
      let* num_clauses = int_range 1 14 in
      let clause_gen =
        let* n = int_range 1 3 in
        list_size (return n)
          (let* v = int_range 1 num_vars in
           let* s = bool in
           return (if s then v else -v))
      in
      let* clauses = list_size (return num_clauses) clause_gen in
      let* n_assum = int_range 1 num_vars in
      let* signs = list_size (return n_assum) bool in
      let assumptions = List.mapi (fun i s -> if s then i + 1 else -(i + 1)) signs in
      return (num_vars, clauses, assumptions))
  in
  QCheck.Test.make ~count:300 ~name:"failed-assumption cores re-solve to unsat"
    (QCheck.make gen)
    (fun (num_vars, clauses, assumptions) ->
      let s = Solver.create () in
      for _ = 1 to num_vars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c)) clauses;
      let assumptions = List.map Lit.of_dimacs assumptions in
      match Solver.solve ~assumptions s with
      | Solver.Sat | Solver.Unknown -> true
      | Solver.Unsat ->
        let core = Solver.unsat_core s in
        List.for_all (fun l -> List.mem l assumptions) core
        && Solver.solve ~assumptions:core s = Solver.Unsat)

let test_pb_basic () =
  (* 2a + b + c >= 3 forces a *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_pb_geq s [ (2, lit a); (1, lit b); (1, lit c) ] 3;
  Alcotest.check check_result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "a forced" true (Solver.model_value s (lit a));
  Alcotest.(check bool) "b or c" true
    (Solver.model_value s (lit b) || Solver.model_value s (lit c))

let test_pb_conflict () =
  (* a + b >= 2 together with ~a is unsat *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_pb_geq s [ (1, lit a); (1, lit b) ] 2;
  Solver.add_clause s [ nlit a ];
  Alcotest.check check_result "unsat" Solver.Unsat (Solver.solve s)

let test_pb_infeasible_degree () =
  let s = Solver.create () in
  let a = Solver.new_var s in
  Solver.add_pb_geq s [ (1, lit a) ] 5;
  Alcotest.check check_result "degree too high" Solver.Unsat (Solver.solve s)

let test_exactly_one () =
  let s = Solver.create () in
  let vs = List.init 8 (fun _ -> Solver.new_var s) in
  Solver.add_exactly_one s (List.map lit vs);
  Alcotest.check check_result "sat" Solver.Sat (Solver.solve s);
  let count =
    List.fold_left (fun n v -> if Solver.model_value s (lit v) then n + 1 else n) 0 vs
  in
  Alcotest.(check int) "exactly one true" 1 count

let test_pb_pigeonhole () =
  (* PHP with at-most-one holes expressed as PB: much faster to refute *)
  let pigeons = 7 and holes = 6 in
  let s = Solver.create () in
  let x = Array.init pigeons (fun _ -> Array.init holes (fun _ -> Solver.new_var s)) in
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> lit x.(p).(h)))
  done;
  for h = 0 to holes - 1 do
    Solver.add_at_most_one s (List.init pigeons (fun p -> lit x.(p).(h)))
  done;
  Alcotest.check check_result "php-pb unsat" Solver.Unsat (Solver.solve s)

let test_pb_knapsack_model_valid () =
  (* Random-ish weighted constraints; check any model actually satisfies
     them semantically. *)
  let s = Solver.create () in
  let n = 12 in
  let vs = Array.init n (fun _ -> Solver.new_var s) in
  let w = Array.init n (fun i -> (i mod 5) + 1) in
  let pairs = Array.to_list (Array.mapi (fun i v -> (w.(i), lit v)) vs) in
  let total = Array.fold_left ( + ) 0 w in
  Solver.add_pb_geq s pairs (total / 2);
  (* also an upper bound: sum w_i x_i <= 2*total/3, via negated lits *)
  let ub = 2 * total / 3 in
  Solver.add_pb_geq s (List.map (fun (a, l) -> (a, Lit.neg l)) pairs) (total - ub);
  Alcotest.check check_result "sat" Solver.Sat (Solver.solve s);
  let sum =
    Array.to_list vs
    |> List.mapi (fun i v -> if Solver.model_value s (lit v) then w.(i) else 0)
    |> List.fold_left ( + ) 0
  in
  Alcotest.(check bool) "lower bound holds" true (sum >= total / 2);
  Alcotest.(check bool) "upper bound holds" true (sum <= ub)

let test_dimacs_roundtrip () =
  let txt = "c comment\np cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n" in
  let cnf = Dimacs.parse_string txt in
  Alcotest.(check int) "vars" 3 cnf.Dimacs.num_vars;
  Alcotest.(check int) "clauses" 3 (List.length cnf.Dimacs.clauses);
  let result, _ = Dimacs.solve_string txt in
  Alcotest.check check_result "solves" Solver.Sat result

let test_luby () =
  let expected = [ 1; 1; 2; 1; 1; 2; 4; 1; 1; 2; 1; 1; 2; 4; 8 ] in
  List.iteri
    (fun i e -> Alcotest.(check int) (Printf.sprintf "luby %d" i) e (Luby.get i))
    expected

(* Property: solver agrees with brute force on random small CNFs. *)
let brute_force_sat num_vars clauses =
  let rec go assignment v =
    if v = num_vars then
      List.for_all
        (fun c -> List.exists (fun l -> assignment.(Stdlib.abs l - 1) = (l > 0)) c)
        clauses
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make num_vars false) 0

let random_cnf_gen =
  QCheck.Gen.(
    let* num_vars = int_range 1 8 in
    let* num_clauses = int_range 1 25 in
    let lit_gen =
      let* v = int_range 1 num_vars in
      let* s = bool in
      return (if s then v else -v)
    in
    let* clauses = list_size (return num_clauses) (list_size (int_range 1 4) lit_gen) in
    return (num_vars, clauses))

let prop_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"solver agrees with brute force"
    (QCheck.make random_cnf_gen)
    (fun (num_vars, clauses) ->
      let s = Solver.create () in
      for _ = 1 to num_vars do
        ignore (Solver.new_var s)
      done;
      List.iter (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c)) clauses;
      let expected = brute_force_sat num_vars clauses in
      let got = Solver.solve s = Solver.Sat in
      if got && expected then
        (* model must actually satisfy every clause *)
        List.for_all
          (fun c -> List.exists (fun l -> Solver.model_value s (Lit.of_dimacs l)) c)
          clauses
      else got = expected)

let random_pb_gen =
  QCheck.Gen.(
    let* num_vars = int_range 1 7 in
    let* num_cons = int_range 1 8 in
    let con_gen =
      let* n = int_range 1 num_vars in
      let* coeffs = list_size (return n) (int_range 1 4) in
      let* signs = list_size (return n) bool in
      let* degree = int_range 0 8 in
      return (List.combine coeffs (List.mapi (fun i s -> (i + 1, s)) signs), degree)
    in
    let* cons = list_size (return num_cons) con_gen in
    return (num_vars, cons))

let brute_force_pb num_vars cons =
  let rec go assignment v =
    if v = num_vars then
      List.for_all
        (fun (pairs, degree) ->
          let sum =
            List.fold_left
              (fun acc (a, (var, sign)) ->
                let value = assignment.(var - 1) = sign in
                if value then acc + a else acc)
              0 pairs
          in
          sum >= degree)
        cons
    else begin
      assignment.(v) <- true;
      go assignment (v + 1)
      ||
      (assignment.(v) <- false;
       go assignment (v + 1))
    end
  in
  go (Array.make num_vars false) 0

let prop_pb_matches_brute_force =
  QCheck.Test.make ~count:300 ~name:"PB solver agrees with brute force"
    (QCheck.make random_pb_gen)
    (fun (num_vars, cons) ->
      let s = Solver.create () in
      for _ = 1 to num_vars do
        ignore (Solver.new_var s)
      done;
      List.iter
        (fun (pairs, degree) ->
          let pairs =
            (* merge duplicate variables to respect the solver contract *)
            let tbl = Hashtbl.create 8 in
            List.iter
              (fun (a, (var, sign)) ->
                let l = Lit.of_var ~sign (var - 1) in
                let cur = try Hashtbl.find tbl l with Not_found -> 0 in
                Hashtbl.replace tbl l (cur + a))
              pairs;
            (* opposite literals of one variable: keep as separate lits is
               not allowed; resolve min overlap into a constant *)
            Hashtbl.fold (fun l a acc -> (a, l) :: acc) tbl []
          in
          (* split pairs that mention both polarities of one var *)
          let by_var = Hashtbl.create 8 in
          List.iter
            (fun (a, l) ->
              let v = Lit.var l in
              let pos, neg = try Hashtbl.find by_var v with Not_found -> (0, 0) in
              if Lit.sign l then Hashtbl.replace by_var v (pos + a, neg)
              else Hashtbl.replace by_var v (pos, neg + a))
            pairs;
          let const = ref 0 in
          let clean =
            Hashtbl.fold
              (fun v (pos, neg) acc ->
                let m = min pos neg in
                const := !const + m;
                let pos = pos - m and neg = neg - m in
                if pos > 0 then (pos, Lit.of_var v) :: acc
                else if neg > 0 then (neg, Lit.of_var ~sign:false v) :: acc
                else acc)
              by_var []
          in
          let degree = degree - !const in
          if degree > 0 then Solver.add_pb_geq s clean degree)
        cons;
      let expected = brute_force_pb num_vars cons in
      let got = Solver.solve s = Solver.Sat in
      got = expected)

(* -- clause insertion ---------------------------------------------------- *)

(* Reference model of [add_clause]: the historical list pipeline
   (sort_uniq, tautology, satisfied, drop false) over an explicit
   level-0 assignment, closed under naive unit propagation over the
   stored clauses. *)
type ref_db = {
  vals : int array; (* by variable: 0 unassigned, 1 true, -1 false *)
  mutable stored : int list list; (* newest first *)
  mutable ref_ok : bool;
  mutable ref_lits : int;
}

let ref_value db l =
  let a = db.vals.(l lsr 1) in
  if l land 1 = 0 then a else -a

let ref_assign db l = db.vals.(l lsr 1) <- (if l land 1 = 0 then 1 else -1)

(* Unit propagation to fixpoint; false on a conflict. *)
let rec ref_propagate db =
  let changed = ref false and conflict = ref false in
  List.iter
    (fun c ->
      if (not !conflict) && not (List.exists (fun l -> ref_value db l = 1) c) then
        match List.filter (fun l -> ref_value db l = 0) c with
        | [] -> conflict := true
        | [ l ] ->
          ref_assign db l;
          changed := true
        | _ -> ())
    db.stored;
  (not !conflict) && ((not !changed) || ref_propagate db)

let ref_add db lits =
  if db.ref_ok then begin
    let lits = List.sort_uniq Int.compare lits in
    let rec taut = function
      | a :: (b :: _ as rest) -> (a lxor 1 = b && a lsr 1 = b lsr 1) || taut rest
      | _ -> false
    in
    if not (taut lits || List.exists (fun l -> ref_value db l = 1) lits) then begin
      let lits = List.filter (fun l -> ref_value db l <> -1) lits in
      db.ref_lits <- db.ref_lits + List.length lits;
      match lits with
      | [] -> db.ref_ok <- false
      | [ l ] ->
        ref_assign db l;
        if not (ref_propagate db) then db.ref_ok <- false
      | _ -> db.stored <- lits :: db.stored
    end
  end

(* Random clause streams over a few variables, so duplicates,
   complementary pairs and units (which fix literals at level 0) are
   all common. *)
let insertion_gen =
  QCheck.Gen.(
    let* nv = int_range 1 8 in
    let clause =
      let* n = frequency [ (1, return 0); (5, return 1); (20, int_range 2 7) ] in
      list_size (return n) (int_bound ((2 * nv) - 1))
    in
    let* clauses = list_size (int_range 1 40) clause in
    return (nv, clauses))

let prop_insertion_matches_reference =
  QCheck.Test.make ~count:500 ~name:"add_clause matches the list pipeline"
    QCheck.(make ~print:Print.(pair int (list (list int))) insertion_gen)
    (fun (nv, clauses) ->
      let s = Solver.create () in
      ignore (Solver.new_vars s nv);
      let db = { vals = Array.make nv 0; stored = []; ref_ok = true; ref_lits = 0 } in
      let sorted_fold () =
        Solver.fold_clauses (fun acc c -> List.sort Int.compare c :: acc) [] s
      in
      List.for_all
        (fun c ->
          let before = List.length db.stored in
          Solver.add_clause s c;
          ref_add db c;
          let units = List.sort Int.compare (Solver.level0_units s) in
          let ref_units =
            List.filter (fun l -> ref_value db l = 1) (List.init (2 * nv) Fun.id)
          in
          Solver.ok s = db.ref_ok
          && Solver.n_literals s = db.ref_lits
          (* a clause just stored keeps the insertion order exactly (no
             propagation has run over it yet); older clauses may have had
             their watches swapped by later unit propagation *)
          && (List.length db.stored = before
             || Solver.fold_clauses (fun _ c -> Some c) None s = Some (List.hd db.stored))
          && sorted_fold () = List.map (List.sort Int.compare) db.stored
          && ((not db.ref_ok) || units = ref_units))
        clauses)

(* -- incremental use, budgets, containers ------------------------------- *)

let test_incremental_narrowing () =
  (* add clauses between solves; models must respect all of them *)
  let s = Solver.create () in
  let vs = Array.init 6 (fun _ -> Solver.new_var s) in
  Solver.add_clause s (Array.to_list (Array.map lit vs));
  Alcotest.check check_result "first" Solver.Sat (Solver.solve s);
  (* forbid the current model, repeatedly: enumerate models *)
  let count = ref 0 in
  let continue = ref true in
  while !continue && !count < 100 do
    match Solver.solve s with
    | Solver.Sat ->
      incr count;
      let blocking =
        Array.to_list vs
        |> List.map (fun v ->
               if Solver.model_value s (lit v) then nlit v else lit v)
      in
      Solver.add_clause s blocking
    | Solver.Unsat -> continue := false
    | Solver.Unknown -> Alcotest.fail "unexpected unknown"
  done;
  (* 2^6 - 1 models satisfy "at least one of six" *)
  Alcotest.(check int) "model count" 63 !count

let test_conflict_budget () =
  (* php(8,7) cannot be refuted in 5 conflicts *)
  let s = Solver.create () in
  let x = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Solver.new_var s)) in
  for p = 0 to 7 do
    Solver.add_clause s (List.init 7 (fun h -> lit x.(p).(h)))
  done;
  for h = 0 to 6 do
    for p1 = 0 to 7 do
      for p2 = p1 + 1 to 7 do
        Solver.add_clause s [ nlit x.(p1).(h); nlit x.(p2).(h) ]
      done
    done
  done;
  Alcotest.check check_result "budget" Solver.Unknown
    (Solver.solve ~max_conflicts:5 s);
  (* and the solver remains usable afterwards *)
  Alcotest.check check_result "full solve" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "ok false after unsat" false (Solver.ok s)

(* php(p, p-1): p pigeons into p-1 holes — unsatisfiable, and hard
   enough that tiny budgets interrupt the refutation *)
let pigeonhole_solver p =
  let s = Solver.create () in
  let x = Array.init p (fun _ -> Array.init (p - 1) (fun _ -> Solver.new_var s)) in
  for i = 0 to p - 1 do
    Solver.add_clause s (List.init (p - 1) (fun h -> lit x.(i).(h)))
  done;
  for h = 0 to p - 2 do
    for p1 = 0 to p - 1 do
      for p2 = p1 + 1 to p - 1 do
        Solver.add_clause s [ nlit x.(p1).(h); nlit x.(p2).(h) ]
      done
    done
  done;
  s

let test_budget_module () =
  (* conflict accounting, latching, and the stop hook *)
  let b = Budget.create ~max_conflicts:10 () in
  Alcotest.(check bool) "fresh not exhausted" false (Budget.exhausted b);
  Budget.charge b ~conflicts:4 ~propagations:100;
  Alcotest.(check int) "remaining" 6 (Budget.remaining_conflicts b);
  Alcotest.(check bool) "under budget" false (Budget.exhausted b);
  Budget.charge b ~conflicts:6 ~propagations:0;
  Alcotest.(check bool) "at limit" true (Budget.exhausted b);
  Alcotest.(check bool) "latched" true (Budget.tripped b);
  Alcotest.(check int) "spent conflicts" 10 (Budget.spent_conflicts b);
  Alcotest.(check int) "spent propagations" 100 (Budget.spent_propagations b);
  (* an expired deadline trips immediately *)
  let b = Budget.create ~timeout:0. () in
  Alcotest.(check bool) "expired deadline" true (Budget.exhausted b);
  (* the hook is consulted and its trip latches: once tripped, the
     budget stays tripped even if the hook would later say "go" *)
  let stop = ref false in
  let polls = ref 0 in
  let b =
    Budget.create
      ~should_stop:(fun () ->
        incr polls;
        !stop)
      ()
  in
  Alcotest.(check bool) "hook says go" false (Budget.exhausted b);
  stop := true;
  Alcotest.(check bool) "hook says stop" true (Budget.exhausted b);
  stop := false;
  Alcotest.(check bool) "trip latches" true (Budget.exhausted b);
  Alcotest.(check int) "hook not re-polled after trip" 2 !polls;
  (* the unlimited budget never trips *)
  let b = Budget.unlimited () in
  Alcotest.(check bool) "unlimited" true (Budget.is_unlimited b);
  Budget.charge b ~conflicts:1_000_000 ~propagations:0;
  Alcotest.(check bool) "never exhausted" false (Budget.exhausted b)

let test_budget_resume_to_unsat () =
  (* Unknown is a clean pause: the instance stays reusable, and a
     fresh, larger budget lets the same solver finish the refutation *)
  let s = pigeonhole_solver 8 in
  Alcotest.check check_result "tiny budget pauses" Solver.Unknown
    (Solver.solve ~budget:(Budget.create ~max_conflicts:3 ~check_every:1 ()) s);
  Alcotest.(check bool) "still ok after pause" true (Solver.ok s);
  let learnt_after_pause = Solver.n_conflicts s in
  Alcotest.(check bool) "some work was done" true (learnt_after_pause > 0);
  (* several more pauses must each make progress without crashing *)
  for _ = 1 to 3 do
    ignore (Solver.solve ~budget:(Budget.create ~max_conflicts:7 ()) s)
  done;
  Alcotest.(check bool) "conflict count survives pauses" true
    (Solver.n_conflicts s >= learnt_after_pause);
  Alcotest.check check_result "unbounded resume refutes" Solver.Unsat
    (Solver.solve s)

let test_budget_resume_to_sat () =
  (* a satisfiable instance paused by a hook budget still yields a
     model on resume *)
  let s = Solver.create () in
  let vs = Array.init 30 (fun _ -> Solver.new_var s) in
  for i = 0 to 28 do
    Solver.add_clause s [ nlit vs.(i); lit vs.(i + 1) ]
  done;
  Solver.add_clause s [ lit vs.(0); lit vs.(29) ];
  let b = Budget.create ~should_stop:(fun () -> true) ~check_every:1 () in
  (* the hook trips at the first checkpoint; with so easy an instance
     the solve may finish before any conflict — both are acceptable,
     a crash is not *)
  (match Solver.solve ~budget:b s with
  | Solver.Sat | Solver.Unknown -> ()
  | Solver.Unsat -> Alcotest.fail "satisfiable by construction");
  Alcotest.check check_result "resume finds a model" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "model readable" true
    (Solver.model_value s (lit vs.(0)) || Solver.model_value s (lit vs.(29)))

let test_budget_shared_across_calls () =
  (* one budget governs total spend across several solves: later calls
     see what earlier calls charged *)
  let b = Budget.create ~max_conflicts:40 () in
  let s = pigeonhole_solver 8 in
  let r1 = Solver.solve ~budget:b s in
  Alcotest.check check_result "first call pauses" Solver.Unknown r1;
  Alcotest.(check bool) "charge recorded" true (Budget.spent_conflicts b >= 40);
  (* the shared budget is exhausted: a second solver must return
     Unknown immediately, doing no work *)
  let s2 = pigeonhole_solver 8 in
  Alcotest.check check_result "second call starves" Solver.Unknown
    (Solver.solve ~budget:b s2);
  Alcotest.(check int) "no work done" 0 (Solver.n_conflicts s2)

let test_budget_timeout () =
  (* a wall-clock deadline interrupts a hard refutation *)
  let s = pigeonhole_solver 11 in
  let b = Budget.create ~timeout:0.02 ~check_every:1 () in
  (match Solver.solve ~budget:b s with
  | Solver.Unknown -> ()
  | Solver.Unsat -> () (* a very fast machine might still finish *)
  | Solver.Sat -> Alcotest.fail "php is unsatisfiable");
  Alcotest.(check bool) "elapsed measured" true (Budget.elapsed b >= 0.)

let test_at_most_one_exhaustive () =
  (* all assignments of three variables against add_at_most_one *)
  for mask = 0 to 7 do
    let s = Solver.create () in
    let vs = Array.init 3 (fun _ -> Solver.new_var s) in
    Solver.add_at_most_one s (Array.to_list (Array.map lit vs));
    Array.iteri
      (fun i v -> Solver.add_clause s [ Lit.of_var ~sign:((mask lsr i) land 1 = 1) v ])
      vs;
    let popcount = (mask land 1) + ((mask lsr 1) land 1) + ((mask lsr 2) land 1) in
    Alcotest.check check_result
      (Printf.sprintf "mask %d" mask)
      (if popcount <= 1 then Solver.Sat else Solver.Unsat)
      (Solver.solve s)
  done

let test_statistics_monotone () =
  let s = Solver.create () in
  let vs = Array.init 10 (fun _ -> Solver.new_var s) in
  for i = 0 to 8 do
    Solver.add_clause s [ nlit vs.(i); lit vs.(i + 1) ]
  done;
  Solver.add_clause s [ lit vs.(0) ];
  ignore (Solver.solve s);
  Alcotest.(check bool) "propagations counted" true (Solver.n_propagations s > 0);
  Alcotest.(check int) "vars" 10 (Solver.n_vars s);
  Alcotest.(check bool) "literals counted" true (Solver.n_literals s >= 19)

let test_vec_operations () =
  let v = Vec.create (-1) in
  Alcotest.(check int) "empty" 0 (Vec.size v);
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "size" 100 (Vec.size v);
  Alcotest.(check int) "get" 42 (Vec.get v 42);
  Alcotest.(check int) "fold" 4950 (Vec.fold ( + ) 0 v)

let test_veci_operations () =
  let v = Veci.create () in
  for i = 0 to 49 do
    Veci.push v (49 - i)
  done;
  Alcotest.(check int) "size" 50 (Veci.size v);
  Veci.sort Int.compare v;
  Alcotest.(check int) "sorted first" 0 (Veci.get v 0);
  Alcotest.(check int) "sorted last" 49 (Veci.last v);
  Alcotest.(check (list int)) "to_list prefix" [ 0; 1; 2 ]
    (List.filteri (fun i _ -> i < 3) (Veci.to_list v));
  Veci.shrink v 10;
  Alcotest.(check int) "shrunk" 10 (Veci.size v);
  Veci.filter_in_place (fun x -> x mod 3 = 0) v;
  Alcotest.(check (list int)) "filtered in order" [ 0; 3; 6; 9 ] (Veci.to_list v)

let test_order_heap () =
  let activity = ref (Array.make 8 0.) in
  let h = Order_heap.create activity in
  for v = 0 to 7 do
    !activity.(v) <- float_of_int (v mod 4);
    Order_heap.insert h v
  done;
  Alcotest.(check int) "size" 8 (Order_heap.size h);
  (* max activity is 3.0, shared by vars 3 and 7 *)
  let first = Order_heap.remove_max h in
  Alcotest.(check bool) "max activity" true (!activity.(first) = 3.0);
  (* bump a low one above everything *)
  !activity.(0) <- 100.;
  Order_heap.decrease h 0;
  Alcotest.(check int) "bumped to top" 0 (Order_heap.remove_max h);
  Alcotest.(check bool) "in_heap" false (Order_heap.in_heap h 0)

(* --- inprocessing: vivification, subsumption, BVE, the scheduler --- *)

let test_vivify_pass () =
  (* [~a; ~b; c] closes early under its own probes: asserting a
     propagates b through [~a; b], falsifying the ~b literal, so the
     clause shortens to [~a; c].  Added first so the probe sees its
     literals in input order (watch maintenance on the other clause's
     probe would reorder them past the propagation). *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ nlit a; nlit b; lit c ];
  Solver.add_clause s [ nlit a; lit b ];
  let lits_before = Solver.n_literals s in
  Alcotest.(check bool) "a clause shortened" true (Solver.vivify_pass s >= 1);
  Alcotest.(check bool) "fewer problem literals" true
    (Solver.n_literals s < lits_before);
  Alcotest.check check_result "a forces c" Solver.Sat
    (Solver.solve ~assumptions:[ lit a ] s);
  Alcotest.(check bool) "c true under a" true (Solver.model_value s (lit c));
  Alcotest.check check_result "a & ~c refuted" Solver.Unsat
    (Solver.solve ~assumptions:[ lit a; nlit c ] s)

let test_vivify_preserves_unsat () =
  let s = pigeonhole_solver 6 in
  ignore (Solver.vivify_pass s);
  Alcotest.check check_result "php(6,5) still unsat" Solver.Unsat (Solver.solve s)

let test_subsume_pass () =
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ lit a; lit b ];
  Solver.add_clause s [ lit a; lit b; lit c ] (* subsumed by the above *);
  Solver.add_clause s [ nlit a; lit c ];
  let before = Solver.n_clauses s in
  Alcotest.(check bool) "a clause removed or strengthened" true
    (Solver.subsume_pass s >= 1);
  Alcotest.(check bool) "formula shrank" true (Solver.n_clauses s < before);
  Alcotest.check check_result "still sat" Solver.Sat (Solver.solve s);
  let v l = Solver.model_value s l in
  Alcotest.(check bool) "original clauses hold" true
    ((v (lit a) || v (lit b)) && ((not (v (lit a))) || v (lit c)))

let test_self_subsumption () =
  (* resolving [a; b] against [a; ~b; c] on b strengthens the latter to
     [a; c]: afterwards ~a propagates c directly *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  Solver.add_clause s [ lit a; lit b ];
  Solver.add_clause s [ lit a; nlit b; lit c ];
  ignore (Solver.subsume_pass s);
  Alcotest.check check_result "~a sat" Solver.Sat
    (Solver.solve ~assumptions:[ nlit a ] s);
  Alcotest.(check bool) "~a forces b" true (Solver.model_value s (lit b));
  Alcotest.check check_result "~a & ~c refuted" Solver.Unsat
    (Solver.solve ~assumptions:[ nlit a; nlit c ] s)

let test_bve_pass () =
  (* x is a pure connective between a and b; resolving its two clauses
     gives [a; b], strictly smaller, so elimination fires.  The model
     must still be answered over the full original formula. *)
  let s = Solver.create () in
  let x = Solver.new_var s and a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit x; lit a ];
  Solver.add_clause s [ nlit x; lit b ];
  Alcotest.(check bool) "eliminated something" true (Solver.bve_pass s >= 1);
  Alcotest.(check bool) "eliminations counted" true (Solver.n_eliminated s >= 1);
  Alcotest.check check_result "sat" Solver.Sat (Solver.solve s);
  let v l = Solver.model_value s l in
  Alcotest.(check bool) "model extends over eliminated vars" true
    ((v (lit x) || v (lit a)) && ((not (v (lit x))) || v (lit b)))

let test_bve_respects_freeze () =
  let s = Solver.create () in
  let x = Solver.new_var s and a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit x; lit a ];
  Solver.add_clause s [ nlit x; lit b ];
  List.iter (Solver.freeze s) [ x; a; b ];
  Alcotest.(check int) "nothing eliminated" 0 (Solver.bve_pass s);
  Alcotest.(check bool) "x frozen" true (Solver.is_frozen s x);
  Alcotest.(check bool) "x not eliminated" false (Solver.is_eliminated s x)

let test_bve_reintroduce_on_assume () =
  (* naming an eliminated variable in an assumption must transparently
     reintroduce its stashed clauses and freeze it from then on *)
  let s = Solver.create () in
  let x = Solver.new_var s and a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit x; lit a ];
  Solver.add_clause s [ nlit x; lit b ];
  Alcotest.(check bool) "x eliminated" true
    (Solver.bve_pass s >= 1 && Solver.n_eliminated s >= 1);
  Alcotest.check check_result "assume x" Solver.Sat
    (Solver.solve ~assumptions:[ lit x ] s);
  Alcotest.(check bool) "stashed clause re-enforced: x -> b" true
    (Solver.model_value s (lit b));
  Alcotest.check check_result "x & ~b refuted by stashed clause" Solver.Unsat
    (Solver.solve ~assumptions:[ lit x; nlit b ] s);
  Alcotest.(check bool) "x frozen after naming" true (Solver.is_frozen s x)

let test_out_of_range_literal () =
  (* x is eliminated; naming it together with an out-of-range variable
     must fail the precondition before reintroducing x *)
  let s = Solver.create () in
  let x = Solver.new_var s and a = Solver.new_var s and b = Solver.new_var s in
  Solver.add_clause s [ lit x; lit a ];
  Solver.add_clause s [ nlit x; lit b ];
  Alcotest.(check bool) "x eliminated" true (Solver.bve_pass s >= 1 && Solver.is_eliminated s x);
  let lits = Solver.n_literals s and clauses = Solver.n_clauses s in
  let rejects name f =
    match f () with
    | () -> Alcotest.failf "%s accepted variable 40" name
    | exception Assert_failure _ ->
      Alcotest.(check bool) (name ^ ": x still eliminated") true (Solver.is_eliminated s x);
      Alcotest.(check int) (name ^ ": no literals added") lits (Solver.n_literals s);
      Alcotest.(check int) (name ^ ": no clauses added") clauses (Solver.n_clauses s);
      Alcotest.(check int) (name ^ ": no PB added") 0 (Solver.n_pbs s)
  in
  rejects "add_clause" (fun () -> Solver.add_clause s [ lit x; lit 40 ]);
  rejects "add_pb_geq" (fun () -> Solver.add_pb_geq s [ (1, lit x); (1, lit 40) ] 1);
  Alcotest.check check_result "still usable" Solver.Sat (Solver.solve s)

let test_inprocess_install_unsat () =
  let s = pigeonhole_solver 7 in
  Inprocess.install ~every:16 s;
  Alcotest.check check_result "php(7,6) unsat with passes active" Solver.Unsat
    (Solver.solve s)

let test_inprocess_install_sat () =
  (* an implication chain with redundant long clauses: the passes may
     rewrite the formula but the unique model must survive *)
  let s = Solver.create () in
  let vs = Array.init 12 (fun _ -> Solver.new_var s) in
  for i = 0 to 10 do
    Solver.add_clause s [ nlit vs.(i); lit vs.(i + 1) ]
  done;
  Solver.add_clause s [ lit vs.(0) ];
  Solver.add_clause s [ nlit vs.(0); lit vs.(11); lit vs.(5) ];
  Solver.add_clause s [ nlit vs.(2); lit vs.(7); lit vs.(9) ];
  Inprocess.install ~every:16 s;
  Alcotest.check check_result "chain sat" Solver.Sat (Solver.solve s);
  Array.iteri
    (fun i v ->
      Alcotest.(check bool)
        (Printf.sprintf "x%d true" i)
        true
        (Solver.model_value s (lit v)))
    vs

let test_inprocess_run_passes () =
  (* run_passes fires all three immediately and reports the work *)
  let s = Solver.create () in
  let a = Solver.new_var s and b = Solver.new_var s and c = Solver.new_var s in
  let x = Solver.new_var s in
  Solver.add_clause s [ lit a; lit b ];
  Solver.add_clause s [ lit a; lit b; lit c ] (* subsumed *);
  Solver.add_clause s [ lit x; lit c ];
  Solver.add_clause s [ nlit x; lit a ] (* x eliminable *);
  Alcotest.(check bool) "changes reported" true (Inprocess.run_passes s > 0);
  Alcotest.check check_result "still sat" Solver.Sat (Solver.solve s);
  let v l = Solver.model_value s l in
  Alcotest.(check bool) "all original clauses hold" true
    ((v (lit a) || v (lit b))
    && (v (lit a) || v (lit b) || v (lit c))
    && (v (lit x) || v (lit c))
    && ((not (v (lit x))) || v (lit a)))

let test_inprocess_incremental_assumptions () =
  (* frozen-variable interface under incremental use: variables named
     in assumptions must keep their meaning across calls even at an
     aggressive cadence *)
  let s = Solver.create () in
  let x = Solver.new_var s and y = Solver.new_var s and z = Solver.new_var s in
  Solver.add_clause s [ nlit x; lit y ];
  Solver.add_clause s [ nlit y; lit z ];
  Inprocess.install ~every:1 s;
  Alcotest.check check_result "x sat" Solver.Sat (Solver.solve ~assumptions:[ lit x ] s);
  Alcotest.(check bool) "x forces z" true (Solver.model_value s (lit z));
  Alcotest.check check_result "~z sat" Solver.Sat
    (Solver.solve ~assumptions:[ nlit z ] s);
  Alcotest.(check bool) "~z forces ~x" false (Solver.model_value s (lit x));
  Alcotest.check check_result "x & ~z unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ lit x; nlit z ] s);
  Alcotest.(check bool) "core mentions the assumptions" true
    (Solver.unsat_core s <> [])

(* --- golden search trajectories ---

   The exact (conflicts, decisions, propagations, restarts, learnt
   total, learnt-database reductions) of fixed jobs=1 runs, recorded
   before the clause arena replaced boxed clauses.  A change to the
   solver's data layout must leave the search bit-identical; any change
   here is a change to the search itself and needs its own
   justification. *)

module Rng = Taskalloc_workloads.Rng
module Fuzz = Taskalloc_fuzz.Fuzz
module Proof = Taskalloc_proof.Proof

let trajectory s =
  [
    Solver.n_conflicts s;
    Solver.n_decisions s;
    Solver.n_propagations s;
    Solver.n_restarts s;
    Solver.n_learnt_total s;
    Solver.n_reduce_dbs s;
  ]

let distinct_dimacs_vars rng ~n k =
  let rec go acc =
    if List.length acc = k then acc
    else
      let v = Rng.range rng 1 n in
      go (if List.mem v acc then acc else v :: acc)
  in
  List.rev_map (fun v -> if Rng.bool rng 0.5 then v else -v) (go [])

(* Uniform random 3-SAT at the satisfiability threshold (m = 4.26 n),
   drawn from the generator stream {!Fuzz.gen_cnf} uses.  The fuzz
   generators themselves are sized for a brute-force oracle and settle
   within a dozen conflicts, too few to pin a search trajectory. *)
let random_3sat ~seed ~n =
  let rng = Rng.create seed in
  let m = 426 * n / 100 in
  { Dimacs.num_vars = n; clauses = List.init m (fun _ -> distinct_dimacs_vars rng ~n 3) }

(* Random normalized PB [>=] constraints over [n] variables, each over
   five distinct variables with a degree near 2/5 of its coefficient
   sum. *)
let random_pb ~seed ~n ~m =
  let rng = Rng.create seed in
  List.init m (fun _ ->
      let terms =
        List.map (fun l -> (Rng.range rng 1 4, l)) (distinct_dimacs_vars rng ~n 5)
      in
      let total = List.fold_left (fun acc (a, _) -> acc + a) 0 terms in
      { Proof.terms; degree = (2 * total / 5) + Rng.range rng 0 1 })

let add_pb_dimacs s { Proof.terms; degree } =
  Solver.add_pb_geq s (List.map (fun (a, l) -> (a, Lit.of_dimacs l)) terms) degree

(* Solve under x0, then under ~x0, then unconditionally: the learnts
   of the first two calls outgrow the third call's fresh learnt limit,
   so the learnt database is reduced and compacted mid-trajectory. *)
let incremental_answers s =
  List.map
    (fun assumptions -> Solver.solve ~assumptions s)
    [ [ lit 0 ]; [ nlit 0 ]; [] ]

let test_golden_trajectories () =
  let answers = Alcotest.list check_result in
  let s = pigeonhole_solver 6 in
  Alcotest.check check_result "php(6,5) answer" Solver.Unsat (Solver.solve s);
  Alcotest.(check (list int)) "php(6,5)" [ 155; 201; 1790; 2; 154; 0 ] (trajectory s);
  let s = Dimacs.load (random_3sat ~seed:5 ~n:160) in
  Alcotest.check answers "3-sat answers" [ Solver.Unsat; Solver.Unsat; Solver.Unsat ]
    (incremental_answers s);
  Alcotest.(check (list int)) "3-sat n=160" [ 2800; 3374; 86309; 20; 2797; 3 ] (trajectory s);
  let s = Solver.create () in
  ignore (Solver.new_vars s 300);
  List.iter (add_pb_dimacs s) (random_pb ~seed:11 ~n:300 ~m:440);
  Alcotest.check answers "random pb answers" [ Solver.Unsat; Solver.Unsat; Solver.Unsat ]
    (incremental_answers s);
  Alcotest.(check (list int)) "random pb n=300" [ 1764; 2220; 81436; 14; 1761; 2 ] (trajectory s)

(* --- clause-database lifecycle ---

   PHP(8,7) behind a guard literal [g]: pigeon clauses [~g; x_p0..x_p6],
   holes 0-3 as PB at-most-one constraints [7 ~g + sum ~x_ph >= 7] and
   holes 4-6 as guarded binary exclusions [~g; ~x_ph; ~x_qh].  Under the
   assumption [g] it is Unsat after thousands of conflicts; with [g]
   free, [~g] satisfies it.  Returns the guard, the pigeon variables
   and the formula as added, in DIMACS literals. *)
let guarded_php s =
  let g = Solver.new_var s in
  let x = Array.init 8 (fun _ -> Array.init 7 (fun _ -> Solver.new_var s)) in
  let clauses = ref [] and pbs = ref [] in
  let clause ls =
    Solver.add_clause s ls;
    clauses := List.map Lit.to_dimacs ls :: !clauses
  in
  let pb terms degree =
    let c = { Proof.terms = List.map (fun (a, l) -> (a, Lit.to_dimacs l)) terms; degree } in
    add_pb_dimacs s c;
    pbs := c :: !pbs
  in
  for p = 0 to 7 do
    clause (nlit g :: List.init 7 (fun h -> lit x.(p).(h)))
  done;
  for h = 0 to 6 do
    if h < 4 then pb ((7, nlit g) :: List.init 8 (fun p -> (1, nlit x.(p).(h)))) 7
    else
      for p = 0 to 7 do
        for q = p + 1 to 7 do
          clause [ nlit g; nlit x.(p).(h); nlit x.(q).(h) ]
        done
      done
  done;
  (g, x, clauses, pbs)

(* One solver goes through the whole clause-database lifecycle:
   learnt-database reduction and compaction, vivification and
   subsumption detaching and reattaching clauses, BVE stashing the
   clause-only pigeon variables and a fuzz case reintroducing them.
   The case's even variables are mapped onto those pigeon variables,
   its odd ones onto fresh variables; with [g] free the guarded
   pigeonhole is satisfied by [~g], so the answer is the case's own,
   which the brute-force oracle decides. *)
let prop_lifecycle =
  QCheck.Test.make ~count:8 ~name:"clause database lifecycle: models, proofs, oracle"
    QCheck.(make ~print:string_of_int Gen.(int_bound 1_000_000))
    (fun seed ->
      let case = Fuzz.gen_case ~seed ~max_vars:10 in
      let s = Solver.create () in
      let trace = Proof.record s in
      Inprocess.install ~every:500 s;
      let g, x, clauses, pbs = guarded_php s in
      if Solver.solve ~assumptions:[ lit g ] s <> Solver.Unsat then
        QCheck.Test.fail_report "guarded php(8,7) is not Unsat under its guard";
      (* the learnts of that refutation outgrow this call's fresh limit *)
      if Solver.solve s <> Solver.Sat then
        QCheck.Test.fail_report "guarded php(8,7) is not Sat with its guard free";
      if Solver.n_reduce_dbs s = 0 then QCheck.Test.fail_report "no learnt-database reduction";
      let nv = match case with Fuzz.Cnf c -> c.Dimacs.num_vars | Fuzz.Pb p -> p.Fuzz.pb_vars in
      let var_of =
        Array.init nv (fun i ->
            if i mod 2 = 0 then x.(i / 2).(4 + (i / 2 mod 3)) else Solver.new_var s)
      in
      let map l = Lit.to_dimacs (Lit.of_var ~sign:(l > 0) var_of.(Stdlib.abs l - 1)) in
      (match case with
      | Fuzz.Cnf c ->
        List.iter
          (fun c ->
            let c = List.map map c in
            Solver.add_clause s (List.map Lit.of_dimacs c);
            clauses := c :: !clauses)
          c.Dimacs.clauses
      | Fuzz.Pb p ->
        List.iter
          (fun { Proof.terms; degree } ->
            let c = { Proof.terms = List.map (fun (a, l) -> (a, map l)) terms; degree } in
            add_pb_dimacs s c;
            pbs := c :: !pbs)
          p.Fuzz.constraints);
      match Solver.solve s with
      | Solver.Sat ->
        let value l = Solver.model_value s l in
        Fuzz.oracle case
        && Solver.fold_clauses (fun ok c -> ok && List.exists value c) true s
        && Solver.fold_pbs
             (fun ok (terms, degree) ->
               ok
               && List.fold_left (fun acc (a, l) -> if value l then acc + a else acc) 0 terms
                  >= degree)
             true s
      | Solver.Unsat ->
        (not (Fuzz.oracle case))
        && Proof.check ~pbs:!pbs
             { Dimacs.num_vars = Solver.n_vars s; clauses = !clauses }
             (trace ())
      | Solver.Unknown -> false)

(* --- growth and lazy watch allocation ---

   A solver that has searched, reduced its learnt database and holds
   watches grows past 100k variables, most of which never get a watch;
   constraints over variables created after several array doublings
   must then behave exactly as in a fresh solver. *)
let test_growth_lazy_allocation () =
  let s = Solver.create () in
  let g, _, _, _ = guarded_php s in
  Alcotest.check check_result "guarded php under its guard" Solver.Unsat
    (Solver.solve ~assumptions:[ lit g ] s);
  Alcotest.check check_result "guarded php with its guard free" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "learnt database reduced" true (Solver.n_reduce_dbs s > 0);
  let fresh = Solver.create () in
  ignore (guarded_php fresh);
  let base = Solver.n_vars s in
  List.iter (fun t -> ignore (Solver.new_vars t 100_000)) [ s; fresh ];
  (* 120 variables spread over the last 60k, well past the doublings *)
  let var i = base + 40_000 + (i * 500) in
  let map l = Lit.of_var ~sign:(l > 0) (var (Stdlib.abs l - 1)) in
  let clauses =
    List.map (List.map map) (random_3sat ~seed:3 ~n:120).Dimacs.clauses
    |> List.filteri (fun i _ -> i mod 5 <> 0)
  and pbs =
    List.map
      (fun { Proof.terms; degree } -> (List.map (fun (a, l) -> (a, map l)) terms, degree))
      (random_pb ~seed:4 ~n:120 ~m:12)
  in
  List.iter
    (fun t ->
      List.iter (Solver.add_clause t) clauses;
      List.iter (fun (terms, degree) -> Solver.add_pb_geq t terms degree) pbs)
    [ s; fresh ];
  let model_ok t =
    let value l = Solver.model_value t l in
    Solver.fold_clauses (fun ok c -> ok && List.exists value c) true t
    && Solver.fold_pbs
         (fun ok (terms, degree) ->
           ok
           && List.fold_left (fun acc (a, l) -> if value l then acc + a else acc) 0 terms
              >= degree)
         true t
  in
  let answers =
    List.init 12 (fun k ->
        (* six literals over variables k+1..k+6, signs from the bits of
           k; the first call also re-asserts the pigeonhole's guard *)
        let assumptions =
          List.init 6 (fun i ->
              let v = i + k + 1 in
              map (if (k lsr (i mod 4)) land 1 = 0 then v else -v))
        in
        let assumptions = if k = 0 then lit g :: assumptions else assumptions in
        let r = Solver.solve ~assumptions s in
        Alcotest.check check_result (Printf.sprintf "assumptions %d: fresh agrees" k)
          (Solver.solve ~assumptions fresh) r;
        if r = Solver.Sat then begin
          Alcotest.(check bool) (Printf.sprintf "assumptions %d: model" k) true (model_ok s);
          Alcotest.(check bool) (Printf.sprintf "assumptions %d: fresh model" k) true
            (model_ok fresh)
        end;
        r)
  in
  Alcotest.(check bool) "both answers occur" true
    (List.mem Solver.Sat answers && List.mem Solver.Unsat answers)

let test_attribution_counters () =
  (* clause-only PHP: every propagation and conflict is the clause
     engine's; the two conflict counters always sum to n_conflicts *)
  let s = pigeonhole_solver 6 in
  ignore (Solver.solve s);
  Alcotest.(check int) "php: no pb props" 0 (Solver.n_pb_props s);
  Alcotest.(check int) "php: no pb conflicts" 0 (Solver.n_pb_conflicts s);
  Alcotest.(check bool) "php: clause props" true (Solver.n_clause_props s > 0);
  Alcotest.(check int) "php: clause conflicts" (Solver.n_conflicts s)
    (Solver.n_clause_conflicts s);
  (* PB pigeonhole: holes as native at-most-one constraints *)
  let s = Solver.create () in
  let x = Array.init 7 (fun _ -> Array.init 6 (fun _ -> Solver.new_var s)) in
  Array.iter (fun row -> Solver.add_clause s (Array.to_list (Array.map lit row))) x;
  for h = 0 to 5 do
    Solver.add_at_most_one s (List.init 7 (fun p -> lit x.(p).(h)))
  done;
  Alcotest.check check_result "pb php unsat" Solver.Unsat (Solver.solve s);
  Alcotest.(check bool) "pb php: pb props" true (Solver.n_pb_props s > 0);
  Alcotest.(check bool) "pb php: pb conflicts" true (Solver.n_pb_conflicts s > 0);
  Alcotest.(check int) "pb php: conflicts split"
    (Solver.n_conflicts s)
    (Solver.n_clause_conflicts s + Solver.n_pb_conflicts s)

let test_golden_allocator_lazy () =
  let open Taskalloc_core in
  let options =
    { Encode.default_options with Encode.lazy_mode = true; inprocess = Some false }
  in
  let problem = Taskalloc_workloads.Workloads.task_scaling ~seed:42 ~n:12 () in
  match Allocator.solve ~options ~jobs:1 problem (Encode.Min_trt 0) with
  | Allocator.Solved r ->
    let st = r.Allocator.stats in
    Alcotest.(check (list int))
      "tasks12 lazy: cost, probes, conflicts, decisions, propagations"
      [ 10; 6; 144; 460; 32235 ]
      [ r.Allocator.cost; st.probes; st.conflicts; st.decisions; st.propagations ]
  | Allocator.Infeasible | Allocator.Unknown -> Alcotest.fail "tasks12 has an optimum"

let suite =
  [
    Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
    Alcotest.test_case "trivial unsat" `Quick test_trivial_unsat;
    Alcotest.test_case "empty clause" `Quick test_empty_clause;
    Alcotest.test_case "unit chain" `Quick test_unit_propagation_chain;
    Alcotest.test_case "3sat" `Quick test_simple_3sat;
    Alcotest.test_case "pigeonhole" `Quick test_pigeonhole;
    Alcotest.test_case "assumptions" `Quick test_assumptions;
    Alcotest.test_case "assumption reuse" `Quick test_assumption_reuse;
    Alcotest.test_case "unsat core" `Quick test_unsat_core;
    Alcotest.test_case "unsat core falsified assumption" `Quick
      test_unsat_core_falsified_assumption;
    Alcotest.test_case "unsat core unconditional" `Quick test_unsat_core_unconditional;
    Alcotest.test_case "unsat core cleared" `Quick test_unsat_core_cleared;
    Alcotest.test_case "pb basic" `Quick test_pb_basic;
    Alcotest.test_case "pb conflict" `Quick test_pb_conflict;
    Alcotest.test_case "pb infeasible degree" `Quick test_pb_infeasible_degree;
    Alcotest.test_case "exactly one" `Quick test_exactly_one;
    Alcotest.test_case "pb pigeonhole" `Quick test_pb_pigeonhole;
    Alcotest.test_case "pb knapsack model" `Quick test_pb_knapsack_model_valid;
    Alcotest.test_case "dimacs roundtrip" `Quick test_dimacs_roundtrip;
    Alcotest.test_case "luby" `Quick test_luby;
    Alcotest.test_case "incremental narrowing" `Quick test_incremental_narrowing;
    Alcotest.test_case "conflict budget" `Quick test_conflict_budget;
    Alcotest.test_case "budget module" `Quick test_budget_module;
    Alcotest.test_case "budget resume to unsat" `Quick test_budget_resume_to_unsat;
    Alcotest.test_case "budget resume to sat" `Quick test_budget_resume_to_sat;
    Alcotest.test_case "budget shared across calls" `Quick test_budget_shared_across_calls;
    Alcotest.test_case "budget timeout" `Quick test_budget_timeout;
    Alcotest.test_case "at-most-one exhaustive" `Quick test_at_most_one_exhaustive;
    Alcotest.test_case "statistics" `Quick test_statistics_monotone;
    Alcotest.test_case "vec" `Quick test_vec_operations;
    Alcotest.test_case "veci" `Quick test_veci_operations;
    Alcotest.test_case "order heap" `Quick test_order_heap;
    Alcotest.test_case "vivify pass" `Quick test_vivify_pass;
    Alcotest.test_case "vivify preserves unsat" `Quick test_vivify_preserves_unsat;
    Alcotest.test_case "subsume pass" `Quick test_subsume_pass;
    Alcotest.test_case "self-subsumption" `Quick test_self_subsumption;
    Alcotest.test_case "bve pass" `Quick test_bve_pass;
    Alcotest.test_case "bve respects freeze" `Quick test_bve_respects_freeze;
    Alcotest.test_case "bve reintroduce on assume" `Quick
      test_bve_reintroduce_on_assume;
    Alcotest.test_case "out-of-range literal" `Quick test_out_of_range_literal;
    Alcotest.test_case "inprocess install unsat" `Quick test_inprocess_install_unsat;
    Alcotest.test_case "inprocess install sat" `Quick test_inprocess_install_sat;
    Alcotest.test_case "inprocess run_passes" `Quick test_inprocess_run_passes;
    Alcotest.test_case "inprocess incremental assumptions" `Quick
      test_inprocess_incremental_assumptions;
    Alcotest.test_case "golden trajectories" `Quick test_golden_trajectories;
    Alcotest.test_case "golden allocator lazy" `Quick test_golden_allocator_lazy;
    Alcotest.test_case "attribution counters" `Quick test_attribution_counters;
    Alcotest.test_case "growth and lazy watch allocation" `Quick
      test_growth_lazy_allocation;
    QCheck_alcotest.to_alcotest prop_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_pb_matches_brute_force;
    QCheck_alcotest.to_alcotest prop_unsat_core_valid;
    QCheck_alcotest.to_alcotest prop_insertion_matches_reference;
    QCheck_alcotest.to_alcotest ~long:true prop_lifecycle;
  ]
