(** Statistics of the benchmark: medians, the tail-percentile rule,
    geometric means and failure fractions. *)

val median : float list -> float
(** Middle value (mean of the two middle values for an even count).
    Raises [Invalid_argument] on an empty list. *)

val tail_permille : int -> int option
(** [tail_permille n] is the highest of the percentiles 50, 75, 90, 95,
    99 and 99.9 (in per mille) that leaves at least 10 of [n] samples
    beyond it, or [None] when [n < 20].  At least 100 samples give
    p90, at least 200 give p95. *)

val percentile : float list -> int -> float
(** [percentile xs pm] is the nearest-rank percentile [pm] (per mille)
    of [xs]: the value of rank [ceil (pm * n / 1000)] in sorted
    order. *)

val tail : float list -> (int * float) option
(** The tail of a sample: [(pm, percentile xs pm)] for
    [pm = tail_permille (List.length xs)]. *)

val geomean : float list -> float
(** Geometric mean of positive values.  Raises [Invalid_argument] on an
    empty list or a value [<= 0]. *)

(** One request's fate as the load client saw it. *)
type answer =
  | Answer of Taskalloc_server.Json.t  (** a response line *)
  | Refused of string
      (** no response: connection refused or closed, or an unparsable
          line *)

val answer_failed : answer -> bool
(** Anything but a response with ["ok": true] — a refusal, an
    [ok:false] error such as [overloaded] or [shutting_down], or a
    response without ["ok"] — is a failure. *)

val failed_frac : attempted:int -> failed:int -> float
(** [failed / attempted].  Raises [Invalid_argument] when
    [attempted < 1] or [failed] is outside [0, attempted]. *)
