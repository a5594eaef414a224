module Json = Taskalloc_server.Json

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> invalid_arg "Stats.median: empty"
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* rank of the nearest-rank percentile, in integer arithmetic so that
   e.g. p90 of 100 samples is rank 90 exactly *)
let rank n pm = max 1 (((pm * n) + 999) / 1000)

let tail_permille n =
  List.find_opt (fun pm -> n - rank n pm >= 10) [ 999; 990; 950; 900; 750; 500 ]

let percentile xs pm =
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty"
  | _ ->
    let a = Array.of_list (sorted xs) in
    a.(rank (Array.length a) pm - 1)

let tail xs =
  Option.map (fun pm -> (pm, percentile xs pm)) (tail_permille (List.length xs))

let geomean = function
  | [] -> invalid_arg "Stats.geomean: empty"
  | xs ->
    let logs =
      List.map
        (fun x ->
          if x <= 0. then invalid_arg "Stats.geomean: non-positive value";
          log x)
        xs
    in
    exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length xs))

type answer = Answer of Json.t | Refused of string

let answer_failed = function
  | Refused _ -> true
  | Answer j -> Json.to_bool (Json.member "ok" j) <> Some true

let failed_frac ~attempted ~failed =
  if attempted < 1 || failed < 0 || failed > attempted then
    invalid_arg "Stats.failed_frac";
  float_of_int failed /. float_of_int attempted
