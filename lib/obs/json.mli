(** Minimal JSON: the one value type behind every document the
    program writes — the [taskallocd] wire protocol, the CLI's [--json]
    answers, Chrome traces, metrics snapshots and [BENCH_*.json] files
    — and the parser the daemon, its client and the tests read them
    back with.

    The toolchain carries no JSON library, so this module is
    deliberately small: exactly the JSON subset those documents use,
    and self-contained. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** Parse one JSON document.  Trailing whitespace is allowed; trailing
    garbage is not.  Raises {!Parse_error} with an offset-bearing
    message.  Numbers without ['.'], ['e'] or ['E'] parse as {!Int}
    (falling back to {!Float} on overflow); [\uXXXX] escapes decode to
    UTF-8, pairing UTF-16 surrogates ([😀] is U+1F600, one
    4-byte sequence; a lone surrogate decodes as-is). *)

val to_string : t -> string
(** Serialize on one line (no newlines are ever emitted, so a document
    is always wire-safe for the newline-delimited protocol).  A float
    prints as the shorter of its [%.15g] and [%.17g] forms that reads
    back as the same float ({!parse} then {!to_float} recovers it
    exactly); non-finite floats serialize as [null]. *)

val member : string -> t -> t
(** Field of an object; {!Null} when absent or when the value is not
    an object. *)

val to_str : t -> string option
val to_int : t -> int option
(** Accepts integral {!Float}s too (a client may send [5.0]). *)

val to_float : t -> float option
val to_bool : t -> bool option
val to_list : t -> t list option
