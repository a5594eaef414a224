(* Allocation-as-a-service daemon core.  See server.mli for the design
   contract and protocol; the short version of the concurrency story:

   - one lightweight thread per client connection does blocking line
     I/O and nothing compute-heavy;
   - a fixed pool of worker domains executes [open]/[solve]/[whatif]/
     [explain]/[repair] requests popped from one bounded queue
     (backpressure: a full queue answers [overloaded] immediately);
   - per-session mutexes serialize all work on one session, and the
     shared-bundle mutex serializes all work on one cached encoding,
     so every incremental solver is only ever driven single-threaded
     (the invariant the CEGAR interlock and the frozen-selector
     machinery of PRs 7-8 rely on) while distinct sessions solve in
     parallel;
   - lock order: a session lock may be taken while holding nothing;
     the table mutex [tmu] and a bundle lock may be taken while
     holding a session lock; the only tmu-first touch of a session
     lock is the evictor's [try_lock], which never blocks — so the
     order cannot deadlock. *)

open Taskalloc_rt
open Taskalloc_core
module Budget = Taskalloc_sat.Budget
module Obs = Taskalloc_obs.Obs
module Explain = Taskalloc_explain.Explain
module W = Taskalloc_explain.Explain.Whatif
module Repair = Taskalloc_repair.Repair
module Scenario = Taskalloc_repair.Scenario
module Workloads = Taskalloc_workloads.Workloads

type listen = [ `Unix of string | `Tcp of string * int ]

type config = {
  listen : listen;
  workers : int;
  max_sessions : int;
  queue_depth : int;
  options : Encode.options option;
  verbose : bool;
  prometheus : (string * int) option;
  flight : string option;
}

let default_config =
  {
    listen = `Unix "taskallocd.sock";
    workers = 2;
    max_sessions = 64;
    queue_depth = 128;
    options = None;
    verbose = false;
    prometheus = None;
    flight = None;
  }

let named_workloads =
  [
    ("tindell43", fun seed -> Workloads.tindell43 ~seed ());
    ("tindell43-can", fun seed -> Workloads.tindell43_can ~seed ());
    ("small", fun seed -> Workloads.small ~seed ());
    ("small-can", fun seed -> Workloads.small_can ~seed ());
    ("tasks7", fun seed -> Workloads.task_scaling ~seed ~n:7 ());
    ("tasks12", fun seed -> Workloads.task_scaling ~seed ~n:12 ());
    ("tasks20", fun seed -> Workloads.task_scaling ~seed ~n:20 ());
    ("tasks30", fun seed -> Workloads.task_scaling ~seed ~n:30 ());
    ("ecus16", fun seed -> Workloads.arch_scaling ~seed ~n_ecus:16 ());
    ("ecus32", fun seed -> Workloads.arch_scaling ~seed ~n_ecus:32 ());
    ("ecus64", fun seed -> Workloads.arch_scaling ~seed ~n_ecus:64 ());
    ("arch-a", fun seed -> Workloads.hierarchical ~seed Workloads.A);
    ("arch-b", fun seed -> Workloads.hierarchical ~seed Workloads.B);
    ("arch-c", fun seed -> Workloads.hierarchical ~seed Workloads.C);
    ("arch-c-can", fun seed -> Workloads.hierarchical_c_can ~seed ());
  ]

(* -- state -------------------------------------------------------------- *)

(* One cached encoding: the grouped formula + incremental solver behind
   a [Whatif] session, shared by every session whose problem hashes to
   [bkey].  [brefs] counts attached sessions; a zero-ref bundle stays
   cached (warm for the next identical [open]) until cache pressure
   trims it. *)
type bundle = {
  bkey : string;
  bwhatif : W.t;
  block : Mutex.t;
  mutable brefs : int;
  mutable blast : float;
}

type session = {
  sid : string;
  soptions : Encode.options;
  mutable sbundle : bundle option;  (* [Some] until the problem diverges *)
  mutable sproblem : Model.problem;  (* current (post-repair) problem *)
  mutable sown : W.t option;  (* private what-if session once diverged *)
  mutable srepair : Repair.t option;
  mutable salloc : Model.allocation option;  (* allocation in force *)
  slock : Mutex.t;
  mutable slast : float;
  mutable sclosed : bool;
}

type reply = { rm : Mutex.t; rc : Condition.t; mutable rv : Json.t option }

(* A live subscriber to one request's progress stream: the [watch]
   verb's connection.  Progress lines are written from worker domains
   under [wmu]; a failed write (client went away) marks the watcher
   dead and later events skip it. *)
type watcher = { wfd : Unix.file_descr; wmu : Mutex.t; mutable wdead : bool }

(* One in-flight (or recently finished) pooled request, keyed by its
   wire-visible [request_id].  The entry outlives the job: [watch]
   joins through it, [cancel] trips [rcancel] (polled by the request's
   [Budget] hook at checkpoint cadence), and the final answer is
   retained so a watch racing the request's completion still gets it. *)
type rentry = {
  rid : string;
  rkind : string;
  rcancel : bool Atomic.t;
  rmu : Mutex.t;
  rcond : Condition.t;
  mutable rdone : Json.t option;  (* final answer once finished *)
  mutable rwatchers : watcher list;
}

type job = {
  jreq : Json.t;
  jkind : string;
  jdeadline : float option;  (* absolute wall-clock deadline *)
  jenqueued : float;  (* wall clock at enqueue: queue-wait attribution *)
  jentry : rentry;
  jreply : reply;
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  stopping : bool Atomic.t;
  started : float;
  (* session table + encode cache, under [tmu] *)
  tmu : Mutex.t;
  sessions : (string, session) Hashtbl.t;
  cache : (string, bundle) Hashtbl.t;
  mutable next_sid : int;
  (* bounded work queue, under [qmu] *)
  qmu : Mutex.t;
  qcond : Condition.t;
  queue : job Queue.t;
  mutable qdepth : int;
  mutable inflight : int;
  (* counters, under [smu] *)
  smu : Mutex.t;
  mutable requests : int;
  mutable errors : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable evictions : int;
  mutable rejected : int;
  mutable watches : int;
  mutable cancels : int;
  lat : Obs.Hist.t;
  kinds : (string, int ref * Obs.Hist.t) Hashtbl.t;
  (* request registry, under [rqmu]: in-flight entries plus a bounded
     FIFO of finished ones (so watch/cancel racing completion still
     resolve the id) *)
  rqmu : Mutex.t;
  rentries : (string, rentry) Hashtbl.t;
  rfinished : string Queue.t;
  mutable next_rid : int;
  (* flight-recorder file dump, requested by SIGUSR1 (via
     [request_flight_dump]) and served from the accept loop *)
  dump_requested : bool Atomic.t;
  (* Prometheus exposition listener, when configured *)
  pfd : Unix.file_descr option;
  (* open connections, under [cmu] *)
  cmu : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable next_conn : int;
  mutable threads : Thread.t list;
}

let now () = Unix.gettimeofday ()

let with_lock m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* -- responses ---------------------------------------------------------- *)

let ok fields = Json.Obj (("ok", Json.Bool true) :: fields)

let err ?(code = "bad_request") fmt =
  Printf.ksprintf
    (fun m ->
      Json.Obj
        [
          ("ok", Json.Bool false);
          ("error", Json.Str code);
          ("message", Json.Str m);
        ])
    fmt

let is_ok = function
  | Json.Obj kvs -> (
    match List.assoc_opt "ok" kvs with Some (Json.Bool b) -> b | _ -> false)
  | _ -> false

(* -- counters ----------------------------------------------------------- *)

let record t kind ~t0 ~rid dur_s okay =
  let us = int_of_float (dur_s *. 1e6) in
  with_lock t.smu (fun () ->
      t.requests <- t.requests + 1;
      if not okay then t.errors <- t.errors + 1;
      Obs.Hist.add t.lat us;
      let cnt, h =
        match Hashtbl.find_opt t.kinds kind with
        | Some e -> e
        | None ->
          let e = (ref 0, Obs.Hist.create ()) in
          Hashtbl.replace t.kinds kind e;
          e
      in
      incr cnt;
      Obs.Hist.add h us);
  (* the flight recorder sees every request outcome, always; [t0] and
     [dur_s] are clock reads the latency accounting above already
     needed, so this adds none *)
  Obs.Flight.record ~ts:t0 ~dur:dur_s ("server." ^ kind)
    ~attrs:
      ((if okay then [] else [ ("error", "true") ])
      @ match rid with None -> [] | Some r -> [ ("request", r) ]);
  (* mirrored into the obs registry (no-ops while metrics are off) *)
  Obs.Metrics.incr "server.requests";
  if not okay then Obs.Metrics.incr "server.errors";
  Obs.Metrics.observe "server.request.us" us;
  Obs.Metrics.observe ("server.request." ^ kind ^ ".us") us

(* -- request registry ---------------------------------------------------- *)

(* Finished entries are retained (bounded FIFO) so a [watch] or
   [cancel] racing the request's completion still resolves the id
   instead of failing with [unknown_request]. *)
let finished_retain = 256

let fresh_rid t =
  with_lock t.rqmu (fun () ->
      let rid = Printf.sprintf "r%d" t.next_rid in
      t.next_rid <- t.next_rid + 1;
      rid)

(* Register [rid] as in flight.  A client-supplied id may reuse a
   finished id (the retained entry is replaced) but never an in-flight
   one.  Lock order: [rqmu] then [rmu]. *)
let register_request t ~rid kind =
  let entry =
    {
      rid;
      rkind = kind;
      rcancel = Atomic.make false;
      rmu = Mutex.create ();
      rcond = Condition.create ();
      rdone = None;
      rwatchers = [];
    }
  in
  with_lock t.rqmu (fun () ->
      match Hashtbl.find_opt t.rentries rid with
      | None ->
        Hashtbl.replace t.rentries rid entry;
        Ok entry
      | Some e ->
        let finished = with_lock e.rmu (fun () -> e.rdone <> None) in
        if not finished then
          Error
            (err ~code:"duplicate_request" "request id %S is already in flight"
               rid)
        else begin
          (* drop the finished incarnation from the FIFO so the eviction
             sweep below cannot remove the new in-flight entry *)
          let keep = Queue.create () in
          Queue.iter (fun r -> if r <> rid then Queue.push r keep) t.rfinished;
          Queue.clear t.rfinished;
          Queue.transfer keep t.rfinished;
          Hashtbl.replace t.rentries rid entry;
          Ok entry
        end)

let find_request t rid =
  with_lock t.rqmu (fun () -> Hashtbl.find_opt t.rentries rid)

(* Publish the final answer: wakes every [watch] blocked on the entry
   and retains the answer for late watchers.  Every rid in [rfinished]
   maps to a finished entry ([register_request] maintains this), so
   eviction is a plain table remove. *)
let finish_request t entry resp =
  with_lock entry.rmu (fun () ->
      entry.rdone <- Some resp;
      Condition.broadcast entry.rcond);
  with_lock t.rqmu (fun () ->
      Queue.push entry.rid t.rfinished;
      while Queue.length t.rfinished > finished_retain do
        Hashtbl.remove t.rentries (Queue.pop t.rfinished)
      done)

let add_request_id rid = function
  | Json.Obj kvs when not (List.mem_assoc "request_id" kvs) ->
    Json.Obj (kvs @ [ ("request_id", Json.Str rid) ])
  | v -> v

(* -- flight-recorder dumps ---------------------------------------------- *)

let request_flight_dump t = Atomic.set t.dump_requested true

let dump_flight t reason =
  match t.cfg.flight with
  | None -> ()
  | Some path -> (
    try
      let oc = open_out path in
      output_string oc (Json.to_string (Obs.Flight.dump_json ()));
      output_char oc '\n';
      close_out oc;
      if t.cfg.verbose then
        Fmt.epr "[taskallocd] flight ring (%d events) dumped to %s (%s)@."
          (Obs.Flight.size ()) path reason
    with Sys_error _ -> ())

(* -- encode cache ------------------------------------------------------- *)

let canonical_key options problem =
  (* options that change the formula are part of the identity; the
     problem itself is keyed by its round-tripping file rendering *)
  let tag =
    Printf.sprintf "lazy=%b;inprocess=%s" options.Encode.lazy_mode
      (match options.Encode.inprocess with
      | None -> "env"
      | Some b -> string_of_bool b)
  in
  Digest.to_hex (Digest.string (tag ^ "\n" ^ Problem_file.to_string problem))

let build_bundle ~key options problem =
  {
    bkey = key;
    bwhatif = W.create ~options problem;
    block = Mutex.create ();
    brefs = 0;
    blast = now ();
  }

(* under [tmu]: drop least-recently-used zero-ref bundles until the
   cache fits the session bound again *)
let trim_cache t =
  let exception Done in
  try
    while Hashtbl.length t.cache > t.cfg.max_sessions do
      let victim =
        Hashtbl.fold
          (fun key b acc ->
            if b.brefs > 0 then acc
            else
              match acc with
              | Some (_, b') when b'.blast <= b.blast -> acc
              | _ -> Some (key, b))
          t.cache None
      in
      match victim with
      | Some (key, _) -> Hashtbl.remove t.cache key
      | None -> raise Done (* every cached bundle is attached *)
    done
  with Done -> ()

(* under [tmu] *)
let release_bundle t = function
  | None -> ()
  | Some b ->
    b.brefs <- b.brefs - 1;
    trim_cache t

(* -- session table ------------------------------------------------------ *)

let find_session t sid =
  with_lock t.tmu (fun () ->
      match Hashtbl.find_opt t.sessions sid with
      | Some s ->
        s.slast <- now ();
        Some s
      | None -> None)

(* under [tmu]: evict the least-recently-used *idle* session — one
   whose lock can be taken without blocking.  A session mid-request is
   never evicted; eviction never tears live work. *)
let evict_lru t =
  let candidates =
    Hashtbl.fold (fun _ s acc -> s :: acc) t.sessions []
    |> List.sort (fun a b -> compare a.slast b.slast)
  in
  let rec try_evict = function
    | [] -> false
    | s :: rest ->
      if Mutex.try_lock s.slock then begin
        Hashtbl.remove t.sessions s.sid;
        s.sclosed <- true;
        release_bundle t s.sbundle;
        s.sbundle <- None;
        s.sown <- None;
        s.srepair <- None;
        Mutex.unlock s.slock;
        t.evictions <- t.evictions + 1;
        Obs.Metrics.incr "server.evictions";
        true
      end
      else try_evict rest
  in
  try_evict candidates

let with_session t req f =
  match Json.to_str (Json.member "session" req) with
  | None -> err "missing \"session\""
  | Some sid -> (
    match find_session t sid with
    | None ->
      err ~code:"unknown_session" "no such session %S (closed or evicted?)" sid
    | Some s ->
      with_lock s.slock (fun () ->
          (* the evictor may have won the race between lookup and lock *)
          if s.sclosed then
            err ~code:"unknown_session"
              "no such session %S (closed or evicted?)" sid
          else begin
            s.slast <- now ();
            f s
          end))

(* the session's live what-if machinery: the shared bundle while the
   problem is pristine, a private session after divergence (built
   lazily against the current problem) *)
let with_whatif s f =
  match s.sbundle with
  | Some b -> with_lock b.block (fun () -> f b.bwhatif)
  | None ->
    let w =
      match s.sown with
      | Some w -> w
      | None ->
        let w = W.create ~options:s.soptions s.sproblem in
        s.sown <- Some w;
        w
    in
    f w

(* called under [slock] after a successful repair: the session's
   problem no longer matches the shared encoding *)
let detach t s =
  (match s.sbundle with
  | Some _ ->
    with_lock t.tmu (fun () ->
        release_bundle t s.sbundle;
        s.sbundle <- None)
  | None -> ());
  s.sown <- None

(* -- request parameters ------------------------------------------------- *)

(* Every pooled request gets a budget, even an otherwise unlimited one:
   the [should_stop] hook is what makes [cancel] bite at checkpoint
   cadence, and an armed budget is also what makes the solver emit
   progress samples for [watch].  The timeout is the time *remaining*
   at dequeue, so queue wait counts against a [deadline_ms]. *)
let budget_of job req =
  let max_conflicts = Json.to_int (Json.member "max_conflicts" req) in
  let timeout = Option.map (fun d -> Float.max 0. (d -. now ())) job.jdeadline in
  let should_stop () = Atomic.get job.jentry.rcancel in
  Some (Budget.create ?timeout ?max_conflicts ~should_stop ())

let bool_param req name default =
  Option.value ~default (Json.to_bool (Json.member name req))

let int_param req name default =
  Option.value ~default (Json.to_int (Json.member name req))

let str_param req name default =
  Option.value ~default (Json.to_str (Json.member name req))

let objective_of_string = function
  | "trt" -> Ok (Encode.Min_trt 0)
  | "sum-trt" -> Ok Encode.Min_sum_trt
  | "bus-load" -> Ok (Encode.Min_bus_load 0)
  | "max-util" -> Ok Encode.Min_max_util
  | "feasible" -> Ok Encode.Feasible
  | s -> Error s

let parallel_of_string = function
  | "auto" -> Ok `Auto
  | "portfolio" -> Ok `Portfolio
  | "cubes" -> Ok `Cubes
  | s -> Error s

(* -- open --------------------------------------------------------------- *)

let problem_of_open req =
  let seed = int_param req "seed" 42 in
  match
    ( Json.to_str (Json.member "workload" req),
      Json.to_str (Json.member "problem" req),
      Json.to_str (Json.member "problem_file" req) )
  with
  | Some name, None, None -> (
    match List.assoc_opt name named_workloads with
    | Some f -> Ok (f seed)
    | None -> Error (err "unknown workload %S" name))
  | None, Some text, None -> (
    try Ok (Problem_file.parse_string text) with
    | Problem_file.Parse_error { line; message } ->
      Error (err ~code:"invalid_problem" "problem line %d: %s" line message)
    | Model.Invalid_model m -> Error (err ~code:"invalid_problem" "%s" m))
  | None, None, Some path -> (
    try Ok (Problem_file.parse_file path) with
    | Problem_file.Parse_error { line; message } ->
      Error (err ~code:"invalid_problem" "%s:%d: %s" path line message)
    | Model.Invalid_model m ->
      Error (err ~code:"invalid_problem" "%s: %s" path m)
    | Sys_error m -> Error (err ~code:"invalid_problem" "%s" m))
  | None, None, None ->
    Error
      (err "missing problem: pass \"workload\", \"problem\" or \"problem_file\"")
  | _ ->
    Error (err "pass exactly one of \"workload\", \"problem\", \"problem_file\"")

let do_open t job =
  let req = job.jreq in
  match problem_of_open req with
  | Error e -> e
  | Ok problem ->
    let options =
      let base = Option.value ~default:Encode.default_options t.cfg.options in
      match Json.to_bool (Json.member "lazy" req) with
      | None -> base
      | Some lazy_mode -> { base with Encode.lazy_mode }
    in
    let use_cache = bool_param req "cache" true in
    (* resolve or build the encode bundle; the (expensive) encode runs
       outside the table lock, so concurrent opens of distinct problems
       never serialize on it *)
    let hit, bundle =
      if not use_cache then begin
        let b = build_bundle ~key:"" options problem in
        b.brefs <- 1;
        (false, b)
      end
      else begin
        let key = canonical_key options problem in
        let cached =
          with_lock t.tmu (fun () ->
              match Hashtbl.find_opt t.cache key with
              | Some b ->
                b.brefs <- b.brefs + 1;
                b.blast <- now ();
                Some b
              | None -> None)
        in
        match cached with
        | Some b -> (true, b)
        | None ->
          let b = build_bundle ~key options problem in
          with_lock t.tmu (fun () ->
              match Hashtbl.find_opt t.cache key with
              | Some b' ->
                (* lost a build race; adopt the winner, drop ours *)
                b'.brefs <- b'.brefs + 1;
                b'.blast <- now ();
                (true, b')
              | None ->
                b.brefs <- 1;
                Hashtbl.replace t.cache key b;
                trim_cache t;
                (false, b))
      end
    in
    with_lock t.smu (fun () ->
        if hit then t.cache_hits <- t.cache_hits + 1
        else t.cache_misses <- t.cache_misses + 1);
    Obs.Metrics.incr (if hit then "server.cache.hits" else "server.cache.misses");
    (* claim a session slot, evicting the LRU idle session at the bound *)
    let slot =
      with_lock t.tmu (fun () ->
          if Hashtbl.length t.sessions >= t.cfg.max_sessions then
            ignore (evict_lru t);
          if Hashtbl.length t.sessions >= t.cfg.max_sessions then begin
            release_bundle t (Some bundle);
            Error
              (err ~code:"overloaded"
                 "session table full (%d sessions, all busy)"
                 t.cfg.max_sessions)
          end
          else begin
            let sid = Printf.sprintf "s%d" t.next_sid in
            t.next_sid <- t.next_sid + 1;
            let s =
              {
                sid;
                soptions = options;
                sbundle = Some bundle;
                sproblem = problem;
                sown = None;
                srepair = None;
                salloc = None;
                slock = Mutex.create ();
                slast = now ();
                sclosed = false;
              }
            in
            Hashtbl.replace t.sessions sid s;
            Ok (sid, Hashtbl.length t.sessions)
          end)
    in
    (match slot with
    | Error e -> e
    | Ok (sid, n_sessions) ->
      Obs.Metrics.set "server.sessions" n_sessions;
      ok
        [
          ("session", Json.Str sid);
          ("cache", Json.Str (if hit then "hit" else "miss"));
          ("tasks", Json.Int (Array.length problem.Model.tasks));
          ("ecus", Json.Int problem.Model.arch.Model.n_ecus);
        ])

(* -- solve -------------------------------------------------------------- *)

let do_solve t job =
  with_session t job.jreq (fun s ->
      match objective_of_string (str_param job.jreq "objective" "trt") with
      | Error o -> err "unknown objective %S" o
      | Ok objective -> (
        match parallel_of_string (str_param job.jreq "parallel" "auto") with
        | Error p -> err "unknown parallel strategy %S" p
        | Ok parallel -> (
          let jobs = max 1 (int_param job.jreq "jobs" 1) in
          let fallback = bool_param job.jreq "fallback" true in
          let budget = budget_of job job.jreq in
          match
            Allocator.solve ~options:s.soptions ~jobs ~parallel ?budget
              ~fallback s.sproblem objective
          with
          | Allocator.Infeasible -> ok [ ("outcome", Json.Str "infeasible") ]
          | Allocator.Unknown -> ok [ ("outcome", Json.Str "unknown") ]
          | Allocator.Solved r ->
            s.salloc <- Some r.Allocator.allocation;
            (* the allocation in force changed; repair restarts from it *)
            s.srepair <- None;
            let quality =
              match r.Allocator.quality with
              | Allocator.Optimal ->
                [ ("quality", Json.Str "optimal"); ("gap", Json.Float 0.) ]
              | Allocator.Anytime { lower_bound } ->
                ("quality", Json.Str "anytime")
                :: ("lower_bound", Json.Int lower_bound)
                ::
                (match Allocator.gap r with
                | Some g -> [ ("gap", Json.Float g) ]
                | None -> [])
              | Allocator.Heuristic name ->
                [
                  ("quality", Json.Str "heuristic");
                  ("heuristic", Json.Str name);
                ]
            in
            ok
              ([
                 ("outcome", Json.Str "solved");
                 ("cost", Json.Int r.Allocator.cost);
               ]
              @ quality
              @ [
                  ( "placement",
                    Explain.placement_to_json s.sproblem r.Allocator.allocation );
                  ("violations", Json.Int (List.length r.Allocator.violations));
                  ("bool_vars", Json.Int r.Allocator.bool_vars);
                  ("literals", Json.Int r.Allocator.literals);
                ]))))

(* -- whatif ------------------------------------------------------------- *)

let do_whatif t job =
  with_session t job.jreq (fun s ->
      let spec = str_param job.jreq "deltas" "" in
      match W.parse_deltas s.sproblem spec with
      | Error m -> err "bad deltas %S: %s" spec m
      | Ok deltas ->
        let budget = budget_of job job.jreq in
        with_whatif s (fun w ->
            let v = W.query ?budget ?current:s.salloc w deltas in
            (* a clean baseline answer doubles as the allocation in
               force, letting a later [repair] start warm *)
            (match (deltas, v) with
            | [], W.Feasible { allocation; relaxed = false } when s.salloc = None
              ->
              s.salloc <- Some allocation
            | _ -> ());
            ok
              [
                ("verdict", W.verdict_to_json w v);
                ("session_solves", Json.Int (W.solves w));
                ("session_queries", Json.Int (W.queries w));
              ]))

(* -- explain ------------------------------------------------------------ *)

let do_explain t job =
  with_session t job.jreq (fun s ->
      let budget = budget_of job job.jreq in
      let jobs = max 1 (int_param job.jreq "jobs" 1) in
      let max_relaxations = int_param job.jreq "max_relaxations" 3 in
      let report =
        Explain.explain ~options:s.soptions ~jobs ?budget ~max_relaxations
          s.sproblem
      in
      ok [ ("report", Explain.report_to_json report) ])

(* -- repair ------------------------------------------------------------- *)

let do_repair t job =
  with_session t job.jreq (fun s ->
      match Json.to_str (Json.member "event" job.jreq) with
      | None -> err "missing \"event\""
      | Some ev -> (
        let budget = budget_of job job.jreq in
        (* the repair state needs an allocation in force: the last
           solve's, or one found warm on the session's what-if baseline *)
        let state =
          match s.srepair with
          | Some r -> Ok r
          | None -> (
            let alloc =
              match s.salloc with
              | Some a -> Ok a
              | None ->
                with_whatif s (fun w ->
                    match W.query ?budget w [] with
                    | W.Feasible { allocation; relaxed = _ } ->
                      s.salloc <- Some allocation;
                      Ok allocation
                    | W.Infeasible _ ->
                      Error
                        (err ~code:"infeasible"
                           "session problem is infeasible: no running \
                            allocation to repair")
                    | W.Unknown ->
                      Error
                        (ok [ ("outcome", Repair.outcome_to_json Repair.Unknown) ]))
            in
            match alloc with
            | Error e -> Error e
            | Ok a ->
              let r = Repair.create ~options:s.soptions s.sproblem a in
              s.srepair <- Some r;
              Ok r)
        in
        match state with
        | Error e -> e
        | Ok r -> (
          let parsed =
            try
              match (Scenario.parse_string ("at 0 " ^ ev)).Scenario.events with
              | [ { Scenario.spec; _ } ] -> Ok (Scenario.resolve r spec)
              | _ -> Error (err "expected exactly one event, got %S" ev)
            with
            | Scenario.Parse_error { message; _ } ->
              Error (err ~code:"invalid_event" "%s" message)
            | Repair.Invalid_event m ->
              Error (err ~code:"invalid_event" "%s" m)
          in
          match parsed with
          | Error e -> e
          | Ok event -> (
            let allow_shed = bool_param job.jreq "allow_shed" true in
            let explain = bool_param job.jreq "explain" false in
            match Repair.repair ?budget ~allow_shed ~explain r event with
            | exception Repair.Invalid_event m ->
              err ~code:"invalid_event" "%s" m
            | outcome ->
              (match outcome with
              | Repair.Repaired _ ->
                s.sproblem <- Repair.problem r;
                s.salloc <- Some (Repair.allocation r);
                (* the problem diverged from the shared encoding *)
                detach t s
              | Repair.Irreparable _ | Repair.Unknown -> ());
              ok
                [
                  ("outcome", Repair.outcome_to_json outcome);
                  ("tasks", Json.Int (Array.length s.sproblem.Model.tasks));
                ]))))

(* -- close -------------------------------------------------------------- *)

let do_close t req =
  match Json.to_str (Json.member "session" req) with
  | None -> err "missing \"session\""
  | Some sid -> (
    let removed =
      with_lock t.tmu (fun () ->
          match Hashtbl.find_opt t.sessions sid with
          | Some s ->
            Hashtbl.remove t.sessions sid;
            Some s
          | None -> None)
    in
    match removed with
    | None -> err ~code:"unknown_session" "no such session %S" sid
    | Some s ->
      (* waits for the session's in-flight request, if any *)
      with_lock s.slock (fun () ->
          s.sclosed <- true;
          with_lock t.tmu (fun () -> release_bundle t s.sbundle);
          s.sbundle <- None;
          s.sown <- None;
          s.srepair <- None);
      ok [ ("closed", Json.Str sid) ])

(* -- stats -------------------------------------------------------------- *)

let hist_json h =
  Json.Obj
    [
      ("count", Json.Int (Obs.Hist.count h));
      ("mean_us", Json.Float (Obs.Hist.mean h));
      ("p50_us", Json.Int (Obs.Hist.quantile h 0.5));
      ("p95_us", Json.Int (Obs.Hist.quantile h 0.95));
      ("p99_us", Json.Int (Obs.Hist.quantile h 0.99));
      ("max_us", Json.Int (Obs.Hist.max_value h));
    ]

let stats_json t =
  let sessions, cache_entries =
    with_lock t.tmu (fun () ->
        (Hashtbl.length t.sessions, Hashtbl.length t.cache))
  in
  let qdepth, inflight =
    with_lock t.qmu (fun () -> (t.qdepth, t.inflight))
  in
  with_lock t.smu (fun () ->
      let kinds =
        Hashtbl.fold (fun k (_cnt, h) acc -> (k, hist_json h) :: acc) t.kinds []
        |> List.sort compare
      in
      ok
        [
          ("uptime_s", Json.Float (now () -. t.started));
          ("sessions", Json.Int sessions);
          ("max_sessions", Json.Int t.cfg.max_sessions);
          ("cache_entries", Json.Int cache_entries);
          ("cache_hits", Json.Int t.cache_hits);
          ("cache_misses", Json.Int t.cache_misses);
          ("evictions", Json.Int t.evictions);
          ("requests", Json.Int t.requests);
          ("errors", Json.Int t.errors);
          ("overloaded", Json.Int t.rejected);
          ("watches", Json.Int t.watches);
          ("cancels", Json.Int t.cancels);
          ("flight_events", Json.Int (Obs.Flight.size ()));
          ("flight_total", Json.Int (Obs.Flight.total ()));
          ("queue_depth", Json.Int qdepth);
          ("queue_max", Json.Int t.cfg.queue_depth);
          ("inflight", Json.Int inflight);
          ("workers", Json.Int t.cfg.workers);
          ("latency_us", hist_json t.lat);
          ("kinds", Json.Obj kinds);
        ])

(* -- work queue --------------------------------------------------------- *)

let enqueue t job =
  with_lock t.qmu (fun () ->
      if Atomic.get t.stopping then Error `Stopping
      else if t.qdepth >= t.cfg.queue_depth then Error `Overloaded
      else begin
        Queue.push job t.queue;
        t.qdepth <- t.qdepth + 1;
        Obs.Metrics.set "server.queue.depth" t.qdepth;
        Condition.signal t.qcond;
        Ok ()
      end)

let await reply =
  with_lock reply.rm (fun () ->
      while reply.rv = None do
        Condition.wait reply.rc reply.rm
      done;
      Option.get reply.rv)

let exec t job =
  try
    Obs.span ("server." ^ job.jkind) (fun () ->
        match job.jkind with
        | "open" -> do_open t job
        | "solve" -> do_solve t job
        | "whatif" -> do_whatif t job
        | "explain" -> do_explain t job
        | "repair" -> do_repair t job
        | k -> err ~code:"unknown_kind" "unknown request kind %S" k)
  with
  | Model.Invalid_model m -> err ~code:"invalid_problem" "%s" m
  | Repair.Invalid_event m -> err ~code:"invalid_event" "%s" m
  | e ->
    (* a worker surviving an uncaught exception is exactly the moment
       the flight ring exists for: capture it before answering *)
    Obs.Flight.record "server.crash"
      ~attrs:
        [ ("exn", Printexc.to_string e); ("request", job.jentry.rid) ];
    dump_flight t ("crash: " ^ Printexc.to_string e);
    err ~code:"internal" "uncaught: %s" (Printexc.to_string e)

let rec worker_loop t =
  Mutex.lock t.qmu;
  while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
    Condition.wait t.qcond t.qmu
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.qmu (* stopping and drained *)
  else begin
    let job = Queue.pop t.queue in
    t.qdepth <- t.qdepth - 1;
    t.inflight <- t.inflight + 1;
    Obs.Metrics.set "server.queue.depth" t.qdepth;
    Mutex.unlock t.qmu;
    let tdeq = now () in
    (* the whole execution runs under the request's context, so every
       span, metric and sample recorded anywhere below — including
       deep solver telemetry — is tagged with the owning request *)
    let resp =
      Obs.with_request job.jentry.rid (fun () ->
          Obs.complete "server.queue_wait" ~start:job.jenqueued ~stop:tdeq;
          Obs.Flight.record ~ts:job.jenqueued ~dur:(tdeq -. job.jenqueued)
            "server.queue_wait";
          exec t job)
    in
    let resp = add_request_id job.jentry.rid resp in
    with_lock t.qmu (fun () -> t.inflight <- t.inflight - 1);
    finish_request t job.jentry resp;
    with_lock job.jreply.rm (fun () ->
        job.jreply.rv <- Some resp;
        Condition.signal job.jreply.rc);
    worker_loop t
  end

(* -- connection handling ------------------------------------------------ *)

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let answer fd id resp =
  let fields = match resp with Json.Obj kvs -> kvs | v -> [ ("value", v) ] in
  let kvs = match id with Some i -> ("id", i) :: fields | None -> fields in
  write_all fd (Json.to_string (Json.Obj kvs) ^ "\n")

(* -- progress streaming -------------------------------------------------- *)

(* Write one line to a watcher's connection.  Runs on the emitting
   worker domain, under the watcher's own mutex; a failed write means
   the watching client went away — the watcher is marked dead and
   skipped from then on (never the request's problem). *)
let watcher_send w line =
  with_lock w.wmu (fun () ->
      if not w.wdead then
        try write_all w.wfd line
        with Unix.Unix_error _ | Sys_error _ -> w.wdead <- true)

let progress_line entry name kvs =
  (* the "t" kv is an absolute epoch timestamp for the flight recorder;
     it is dropped from the wire line because watchers get event
     ordering from the stream itself *)
  Json.to_string
    (Json.Obj
       ([
          ("event", Json.Str "progress");
          ("request_id", Json.Str entry.rid);
          ("sample", Json.Str name);
        ]
       @ List.filter_map
           (fun (k, v) -> if k = "t" then None else Some (k, Json.Float v))
           kvs))
  ^ "\n"

(* The process-wide sample hook, installed for the daemon's whole
   lifetime: every budget-checkpoint progress sample (solver conflict
   rate, optimizer bounds, CEGAR rounds) lands here, on the emitting
   domain.  Two consumers: the always-on flight ring (timestamped with
   the "t" kv the sample already carries — no clock read here), and
   the live watchers of whichever request the emitting domain is
   executing. *)
let sample_hook t name kvs =
  Obs.Flight.record
    ?ts:(List.assoc_opt "t" kvs)
    name
    ~attrs:
      (List.filter_map
         (fun (k, v) ->
           if k = "t" then None else Some (k, Printf.sprintf "%g" v))
         kvs);
  match Obs.current_request () with
  | None -> ()
  | Some rid -> (
    match find_request t rid with
    | None -> ()
    | Some entry -> (
      match with_lock entry.rmu (fun () -> entry.rwatchers) with
      | [] -> ()
      | ws ->
        let line = progress_line entry name kvs in
        List.iter (fun w -> watcher_send w line) ws))

(* [watch]: subscribe this connection to [rid]'s progress stream and
   block until the request finishes; progress lines are written by the
   emitting worker domains, the final answer (the last line) by us.
   Blocking is fine — a watch owns its connection thread, and the
   watched request necessarily arrived on a different connection. *)
let do_watch t fd req =
  match Json.to_str (Json.member "request" req) with
  | None -> err "missing \"request\""
  | Some rid -> (
    match find_request t rid with
    | None ->
      err ~code:"unknown_request" "no such request %S (never seen, or evicted)"
        rid
    | Some entry ->
      with_lock t.smu (fun () -> t.watches <- t.watches + 1);
      Obs.Metrics.incr "server.watches";
      let w = { wfd = fd; wmu = Mutex.create (); wdead = false } in
      let final =
        with_lock entry.rmu (fun () ->
            if entry.rdone = None then begin
              entry.rwatchers <- w :: entry.rwatchers;
              while entry.rdone = None do
                Condition.wait entry.rcond entry.rmu
              done;
              entry.rwatchers <- List.filter (fun w' -> w' != w) entry.rwatchers
            end;
            Option.get entry.rdone)
      in
      (* a worker that copied the watcher list before we unsubscribed
         may still be mid-send; taking [wmu] to mark the watcher dead
         waits that send out, so the final answer below can never
         interleave with a progress line *)
      with_lock w.wmu (fun () -> w.wdead <- true);
      final)

let do_cancel t req =
  match Json.to_str (Json.member "request" req) with
  | None -> err "missing \"request\""
  | Some rid -> (
    match find_request t rid with
    | None ->
      err ~code:"unknown_request" "no such request %S (never seen, or evicted)"
        rid
    | Some entry ->
      Atomic.set entry.rcancel true;
      with_lock t.smu (fun () -> t.cancels <- t.cancels + 1);
      Obs.Metrics.incr "server.cancels";
      let finished = with_lock entry.rmu (fun () -> entry.rdone <> None) in
      ok
        [
          ("cancelled", Json.Str rid);
          ("kind", Json.Str entry.rkind);
          ("finished", Json.Bool finished);
        ])

let do_dump t =
  dump_flight t "dump verb";
  ok
    [
      ("flight", Obs.Flight.dump_json ());
      ("events", Json.Int (Obs.Flight.size ()));
      ("total", Json.Int (Obs.Flight.total ()));
    ]

(* -- Prometheus exposition ----------------------------------------------- *)

let prom_name s =
  String.map
    (fun c ->
      match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
    s

let prom_labels = function
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%S" k v) kvs)
    ^ "}"

(* One histogram family member.  The registry's power-of-two buckets
   are exact cumulative [le] bounds: bucket [i] holds integer values
   [<= 2^i - 1], so the translation loses nothing. *)
let prom_hist b name ?(labels = []) h =
  let cum = ref 0 in
  List.iter
    (fun (ub, c) ->
      cum := !cum + c;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket%s %d\n" name
           (prom_labels (labels @ [ ("le", string_of_int ub) ]))
           !cum))
    (Obs.Hist.buckets h);
  Buffer.add_string b
    (Printf.sprintf "%s_bucket%s %d\n" name
       (prom_labels (labels @ [ ("le", "+Inf") ]))
       (Obs.Hist.count h));
  Buffer.add_string b
    (Printf.sprintf "%s_sum%s %d\n" name (prom_labels labels) (Obs.Hist.sum h));
  Buffer.add_string b
    (Printf.sprintf "%s_count%s %d\n" name (prom_labels labels)
       (Obs.Hist.count h))

let prom_quantiles b name ?(labels = []) h =
  List.iter
    (fun (q, tag) ->
      Buffer.add_string b
        (Printf.sprintf "%s%s %d\n" name
           (prom_labels (labels @ [ ("quantile", tag) ]))
           (Obs.Hist.quantile h q)))
    [ (0.5, "0.5"); (0.95, "0.95"); (0.99, "0.99") ]

let prometheus_text t =
  let b = Buffer.create 4096 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b '\n')
      fmt
  in
  let counter name v =
    line "# TYPE %s counter" name;
    line "%s %d" name v
  in
  let gauge name v =
    line "# TYPE %s gauge" name;
    line "%s %g" name v
  in
  let sessions, cache_entries =
    with_lock t.tmu (fun () ->
        (Hashtbl.length t.sessions, Hashtbl.length t.cache))
  in
  let qdepth, inflight = with_lock t.qmu (fun () -> (t.qdepth, t.inflight)) in
  with_lock t.smu (fun () ->
      counter "taskalloc_requests_total" t.requests;
      counter "taskalloc_errors_total" t.errors;
      counter "taskalloc_cache_hits_total" t.cache_hits;
      counter "taskalloc_cache_misses_total" t.cache_misses;
      counter "taskalloc_evictions_total" t.evictions;
      counter "taskalloc_overloaded_total" t.rejected;
      counter "taskalloc_watches_total" t.watches;
      counter "taskalloc_cancels_total" t.cancels;
      counter "taskalloc_flight_recorded_total" (Obs.Flight.total ());
      gauge "taskalloc_sessions" (float_of_int sessions);
      gauge "taskalloc_max_sessions" (float_of_int t.cfg.max_sessions);
      gauge "taskalloc_cache_entries" (float_of_int cache_entries);
      gauge "taskalloc_queue_depth" (float_of_int qdepth);
      gauge "taskalloc_queue_max" (float_of_int t.cfg.queue_depth);
      gauge "taskalloc_inflight" (float_of_int inflight);
      gauge "taskalloc_workers" (float_of_int t.cfg.workers);
      gauge "taskalloc_flight_events" (float_of_int (Obs.Flight.size ()));
      gauge "taskalloc_uptime_seconds" (now () -. t.started);
      (* request latency: one histogram family over all requests, one
         labeled by protocol verb, plus quantile summaries estimated
         from the same buckets *)
      line "# TYPE taskalloc_request_duration_us histogram";
      prom_hist b "taskalloc_request_duration_us" t.lat;
      let kinds =
        Hashtbl.fold (fun k (_, h) acc -> (k, h) :: acc) t.kinds []
        |> List.sort compare
      in
      line "# TYPE taskalloc_request_kind_duration_us histogram";
      List.iter
        (fun (k, h) ->
          prom_hist b "taskalloc_request_kind_duration_us"
            ~labels:[ ("kind", k) ] h)
        kinds;
      line "# TYPE taskalloc_request_duration_us_quantile gauge";
      prom_quantiles b "taskalloc_request_duration_us_quantile" t.lat;
      line "# TYPE taskalloc_request_kind_duration_us_quantile gauge";
      List.iter
        (fun (k, h) ->
          prom_quantiles b "taskalloc_request_kind_duration_us_quantile"
            ~labels:[ ("kind", k) ] h)
        kinds);
  (* the obs registry mirror, when metrics are enabled (names like
     server.requests become taskalloc_obs_server_requests_total) *)
  List.iter
    (fun (k, v) -> counter ("taskalloc_obs_" ^ prom_name k ^ "_total") v)
    (Obs.Metrics.counters ());
  List.iter
    (fun (k, v) -> gauge ("taskalloc_obs_" ^ prom_name k) (float_of_int v))
    (Obs.Metrics.gauges ());
  List.iter
    (fun (k, h) ->
      let name = "taskalloc_obs_" ^ prom_name k in
      line "# TYPE %s histogram" name;
      prom_hist b name h)
    (Obs.Metrics.hists ());
  Buffer.contents b

(* Minimal HTTP/1.1 exposition endpoint: one short-lived connection
   per scrape, GET /metrics only.  Runs on its own thread beside the
   accept loop; blocking I/O with the same 0.2s stop poll. *)
let http_serve t pfd =
  let handle fd =
    let buf = Bytes.create 2048 in
    let n = try Unix.read fd buf 0 (Bytes.length buf) with Unix.Unix_error _ -> 0 in
    let req = Bytes.sub_string buf 0 (max n 0) in
    let body, status =
      match String.index_opt req '\r' with
      | _ when n <= 0 -> ("bad request\n", "400 Bad Request")
      | None -> ("bad request\n", "400 Bad Request")
      | Some eol -> (
        match String.split_on_char ' ' (String.sub req 0 eol) with
        | [ "GET"; path; _ ] when path = "/metrics" || path = "/" ->
          (prometheus_text t, "200 OK")
        | [ "GET"; _; _ ] -> ("not found\n", "404 Not Found")
        | _ -> ("bad request\n", "400 Bad Request"))
    in
    let resp =
      Printf.sprintf
        "HTTP/1.1 %s\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: %d\r\n\
         Connection: close\r\n\
         \r\n\
         %s"
        status (String.length body) body
    in
    try write_all fd resp with Unix.Unix_error _ | Sys_error _ -> ()
  in
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ pfd ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true pfd with
        | exception Unix.Unix_error _ -> ()
        | fd, _ ->
          (try handle fd with _ -> ());
          (try Unix.close fd with Unix.Unix_error _ -> ())));
      loop ()
    end
  in
  loop ()

let prometheus_port t =
  Option.map
    (fun fd ->
      match Unix.getsockname fd with
      | Unix.ADDR_INET (_, p) -> p
      | _ -> 0)
    t.pfd

(* -- request dispatch ---------------------------------------------------- *)

let pooled = [ "open"; "solve"; "whatif"; "explain"; "repair" ]

let handle_line t fd line =
  let t0 = now () in
  let kind_ref = ref "invalid" in
  let rid_ref = ref None in
  let resp, id =
    match Json.parse line with
    | exception Json.Parse_error m ->
      kind_ref := "parse";
      (err ~code:"parse" "malformed JSON: %s" m, None)
    | req -> (
      let id =
        match Json.member "id" req with Json.Null -> None | v -> Some v
      in
      match Json.to_str (Json.member "kind" req) with
      | None -> (err "missing \"kind\"", id)
      | Some kind ->
        kind_ref := kind;
        if kind = "ping" then (ok [ ("pong", Json.Bool true) ], id)
        else if kind = "stats" then (stats_json t, id)
        else if kind = "close" then (do_close t req, id)
        else if kind = "watch" then (do_watch t fd req, id)
        else if kind = "cancel" then (do_cancel t req, id)
        else if kind = "dump" then (do_dump t, id)
        else if kind = "metrics" then
          (ok [ ("metrics", Obs.metrics_json ()) ], id)
        else if not (List.mem kind pooled) then
          (err ~code:"unknown_kind" "unknown request kind %S" kind, id)
        else begin
          (* a pooled request gets a wire-visible request id — client
             supplied, or generated — that [watch] and [cancel] target
             and that tags every event the request records *)
          let rid =
            match Json.to_str (Json.member "request_id" req) with
            | Some r when r <> "" -> r
            | _ -> fresh_rid t
          in
          rid_ref := Some rid;
          match register_request t ~rid kind with
          | Error e -> (e, id)
          | Ok entry -> (
            let deadline =
              Option.map
                (fun ms -> t0 +. (float_of_int ms /. 1000.))
                (Json.to_int (Json.member "deadline_ms" req))
            in
            let job =
              {
                jreq = req;
                jkind = kind;
                jdeadline = deadline;
                jenqueued = t0;
                jentry = entry;
                jreply =
                  { rm = Mutex.create (); rc = Condition.create (); rv = None };
              }
            in
            match enqueue t job with
            | Error `Overloaded ->
              with_lock t.smu (fun () -> t.rejected <- t.rejected + 1);
              Obs.Metrics.incr "server.overloaded";
              let e =
                add_request_id rid
                  (err ~code:"overloaded"
                     "work queue full (%d deep); retry later" t.cfg.queue_depth)
              in
              (* a watch racing the rejection must not hang on the entry *)
              finish_request t entry e;
              (e, id)
            | Error `Stopping ->
              let e =
                add_request_id rid
                  (err ~code:"shutting_down" "server is draining")
              in
              finish_request t entry e;
              (e, id)
            | Ok () -> (await job.jreply, id))
        end)
  in
  let dur = now () -. t0 in
  record t !kind_ref ~t0 ~rid:!rid_ref dur (is_ok resp);
  if t.cfg.verbose then
    Fmt.epr "[taskallocd] %-8s %s %.1fms@." !kind_ref
      (if is_ok resp then "ok " else "err")
      (1e3 *. dur);
  answer fd id resp

let conn_loop t cid fd =
  let ic = Unix.in_channel_of_descr fd in
  (try
     let continue = ref true in
     while !continue do
       match input_line ic with
       | exception (End_of_file | Sys_error _) -> continue := false
       | line ->
         let line = String.trim line in
         if line <> "" then handle_line t fd line
     done
   with
  | Unix.Unix_error
      ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF | Unix.ESHUTDOWN), _, _) ->
    (* the client went away mid-request: drop the response, keep serving *)
    ()
  | Sys_error _ -> ());
  with_lock t.cmu (fun () -> Hashtbl.remove t.conns cid);
  try Unix.close fd with Unix.Unix_error _ -> ()

(* -- lifecycle ---------------------------------------------------------- *)

let create cfg =
  let cfg =
    {
      cfg with
      workers = max 1 cfg.workers;
      max_sessions = max 1 cfg.max_sessions;
      queue_depth = max 1 cfg.queue_depth;
    }
  in
  let lsock =
    match cfg.listen with
    | `Unix path ->
      (* a stale socket file from a crashed daemon would shadow us *)
      (match Unix.stat path with
      | { Unix.st_kind = Unix.S_SOCK; _ } -> (
        try Unix.unlink path with Unix.Unix_error _ -> ())
      | _ -> ()
      | exception Unix.Unix_error _ -> ());
      let s = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try
         Unix.bind s (Unix.ADDR_UNIX path);
         Unix.listen s 64
       with e ->
         (try Unix.close s with Unix.Unix_error _ -> ());
         raise e);
      s
    | `Tcp (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      (try
         Unix.bind s (Unix.ADDR_INET (addr, port));
         Unix.listen s 64
       with e ->
         (try Unix.close s with Unix.Unix_error _ -> ());
         raise e);
      s
  in
  let pfd =
    match cfg.prometheus with
    | None -> None
    | Some (host, port) ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      (try
         Unix.bind s (Unix.ADDR_INET (addr, port));
         Unix.listen s 16
       with e ->
         (try Unix.close s with Unix.Unix_error _ -> ());
         (try Unix.close lsock with Unix.Unix_error _ -> ());
         raise e);
      Some s
  in
  {
    cfg;
    lsock;
    stopping = Atomic.make false;
    started = now ();
    tmu = Mutex.create ();
    sessions = Hashtbl.create 64;
    cache = Hashtbl.create 64;
    next_sid = 1;
    qmu = Mutex.create ();
    qcond = Condition.create ();
    queue = Queue.create ();
    qdepth = 0;
    inflight = 0;
    smu = Mutex.create ();
    requests = 0;
    errors = 0;
    cache_hits = 0;
    cache_misses = 0;
    evictions = 0;
    rejected = 0;
    watches = 0;
    cancels = 0;
    lat = Obs.Hist.create ();
    kinds = Hashtbl.create 8;
    rqmu = Mutex.create ();
    rentries = Hashtbl.create 64;
    rfinished = Queue.create ();
    next_rid = 1;
    dump_requested = Atomic.make false;
    pfd;
    cmu = Mutex.create ();
    conns = Hashtbl.create 16;
    next_conn = 1;
    threads = [];
  }

let stop t = Atomic.set t.stopping true

let run t =
  (* a client disconnecting mid-write must cost that client its
     response, never the daemon its life *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* arm progress sampling for the daemon's whole lifetime: with a
     hook installed, budget checkpoints in the solver, optimizer and
     CEGAR loop emit samples even while the obs sinks are off — the
     feed for [watch] streams and the flight ring *)
  Obs.set_sample_hook (Some (sample_hook t));
  let prom =
    Option.map (fun pfd -> Thread.create (fun () -> http_serve t pfd) ()) t.pfd
  in
  let workers =
    Array.init t.cfg.workers (fun _ -> Domain.spawn (fun () -> worker_loop t))
  in
  let rec accept_loop () =
    if not (Atomic.get t.stopping) then begin
      if Atomic.get t.dump_requested then begin
        Atomic.set t.dump_requested false;
        dump_flight t "signal"
      end;
      (match Unix.select [ t.lsock ] [] [] 0.2 with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
      | [], _, _ -> ()
      | _ -> (
        match Unix.accept ~cloexec:true t.lsock with
        | exception
            Unix.Unix_error
              ( (Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.ECONNABORTED),
                _,
                _ ) ->
          ()
        | fd, _ ->
          let cid =
            with_lock t.cmu (fun () ->
                let cid = t.next_conn in
                t.next_conn <- cid + 1;
                Hashtbl.replace t.conns cid fd;
                cid)
          in
          let th = Thread.create (fun () -> conn_loop t cid fd) () in
          with_lock t.cmu (fun () -> t.threads <- th :: t.threads)));
      accept_loop ()
    end
  in
  accept_loop ();
  (* drain: requests already queued are executed and answered; new ones
     are rejected with [shutting_down] (checked under the queue lock) *)
  with_lock t.qmu (fun () -> Condition.broadcast t.qcond);
  Array.iter Domain.join workers;
  Obs.set_sample_hook None;
  (match prom with Some th -> Thread.join th | None -> ());
  (match t.pfd with
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  (* every reply is delivered; nudge lingering connections shut *)
  with_lock t.cmu (fun () ->
      Hashtbl.iter
        (fun _ fd ->
          try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE
          with Unix.Unix_error _ -> ())
        t.conns);
  List.iter Thread.join (with_lock t.cmu (fun () -> t.threads));
  (try Unix.close t.lsock with Unix.Unix_error _ -> ());
  match t.cfg.listen with
  | `Unix path -> (
    try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | `Tcp _ -> ()
