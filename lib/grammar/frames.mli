(** Hash-consed prediction frames and frame stacks.

    Every frame an SLL/LL closure can ever build is a {e suffix of some
    grammar right-hand side} (closure pushes whole RHSs, consumes/expands
    them suffix by suffix, and stable-return forks push caller
    continuations, which are RHS suffixes by construction) — plus the odd
    parser continuation such as [\[NT start\]].  This module interns all RHS
    suffixes at analysis-build time into a side table, so at prediction time
    a frame is an [int], a frame stack is a hash-consed int-spine (the GSS
    idea from [lib/gss], applied to the representation itself), and
    configuration compare/hash are O(1).

    The tables are per-grammar (owned by {!Analysis.t}) and grow-only;
    [frame_of_syms] falls back to dynamic interning for the rare
    non-static frame.  Ids are deterministic for a given grammar, and
    {!fingerprint} digests the static table so persisted caches are bound
    to the exact id assignment they were built with. *)

open Symbols

type t

(** A frame: dense id of an interned symbol-list suffix. *)
type frame = int

(** A stack of frames: dense id of a hash-consed (frame, tail) spine. *)
type spine = int

(** Decoded first symbol of a frame, with the frame id of the rest. *)
type head =
  | Empty
  | Term of terminal * frame
  | Nonterm of nonterminal * frame

(** Build the interner for a grammar: interns the empty frame (id
    {!empty_frame}) and every suffix of every right-hand side. *)
val make : Grammar.t -> t

(** The id of the empty frame [\[\]] (always [0]). *)
val empty_frame : frame

(** Intern an arbitrary symbol list (a table hit for RHS suffixes). *)
val frame_of_syms : t -> symbol list -> frame

(** [frame_cons t ~terminal v tail] is the frame of [s :: syms], where
    [s] is [T v] if [terminal], else [NT v], and [tail] is the frame of
    [syms]; interned if new.  It allocates nothing when the frame exists
    (every RHS suffix does), which is how image states are decoded. *)
val frame_cons : t -> terminal:bool -> int -> frame -> frame

val syms_of_frame : t -> frame -> symbol list
val head : t -> frame -> head

(** Frame of the full right-hand side of production [ix]. *)
val rhs_frame : t -> int -> frame

(** {1 Spines} *)

(** The empty spine (always [0]). *)
val nil : spine

val cons : t -> frame -> spine -> spine
val spine_is_nil : spine -> bool
val spine_frame : t -> spine -> frame
val spine_tail : t -> spine -> spine

(** Number of frames in the spine, O(1). *)
val spine_length : t -> spine -> int

val spine_of_frames : t -> symbol list list -> spine
val frames_of_spine : t -> spine -> symbol list list

(** {1 Statistics and identity} *)

val num_frames : t -> int

(** Frames interned by {!make} (before any dynamic additions). *)
val num_static_frames : t -> int

val num_spines : t -> int

(** Hex digest of the static suffix table (frame contents in id order plus
    the production-to-frame map).  Persisted prediction caches embed this so
    a cache built against a different id assignment is rejected. *)
val fingerprint : t -> string
