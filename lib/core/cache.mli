(** The SLL prediction cache: a DFA per decision nonterminal (paper, §3.4),
    interned end to end.

    DFA states are interned canonical sets of SLL configurations.
    Configurations are all-int records ({!Config}), so a state key is the
    sorted array of its members' dense config ids, hashed once; transitions
    live in per-state terminal-indexed arrays, making the warm prediction
    step a pair of array reads ({!trans_get}).

    Unlike the Coq development's purely functional cache, this one is a
    mutable store (hashtables + growable arrays), and the API says so:
    mutators return [unit], and callers sharing a cache observe each
    other's additions.  Cache contents never influence parse {e results},
    only speed (property-tested), so this sharing is benign; use {!copy} or
    a fresh {!create} where independent growth matters (e.g. cold-cache
    measurements).

    A cache is bound at {!create} to one grammar's {!Analysis.t} (whose
    {!Costar_grammar.Frames} table defines the config representation); using
    it with any other grammar is undefined. *)

open Costar_grammar
open Costar_grammar.Symbols

type t

type state_id = int

(** Precomputed facts about an interned DFA state. *)
type verdict =
  | V_empty  (** no live subparsers: reject *)
  | V_all_pred of int  (** all live subparsers carry this prediction *)
  | V_pending  (** live subparsers disagree: keep scanning *)

type info = {
  configs : Config.sll list;  (** canonical (sorted, deduped) *)
  verdict : verdict;
  accepting : int list;
      (** distinct predictions of configurations in accepting position *)
  decided_pred : Types.prediction;
      (** preboxed [Unique_pred] when [verdict] is [V_all_pred]; the warm
          fast path returns this shared value instead of allocating *)
  eof_pred : Types.prediction;
      (** preboxed prediction for input ending in this state (from
          [accepting]: reject, unique, or ambiguous) *)
}

(** A fresh, empty cache for this grammar analysis. *)
val create : Analysis.t -> t

(** The analysis this cache was created against.  A cache must only be
    consulted through this exact analysis: its configurations are expressed
    in the analysis's {!Costar_grammar.Frames} interner, whose spine ids
    depend on runtime interning order, so even another [Analysis.make] of
    the same grammar is incompatible.  Consumers given a cache without its
    analysis (the machine, the static analyzer) read it back from here. *)
val analysis : t -> Analysis.t

(** The frame interner this cache's configurations are expressed in. *)
val frames : t -> Frames.t

(** An independent cache with the same contents and ids; later additions to
    either do not affect the other. *)
val copy : t -> t

(** {1 Freezing and overlays (parallel batch parsing)}

    A {!frozen} value is a snapshot of a cache that is never mutated again.
    Under the OCaml memory model, data published before [Domain.spawn] and
    never written afterwards is safe to read from any number of domains
    without locks, so one snapshot serves a whole worker pool.  Each worker
    consults it through its own {!overlay} — an ordinary [t] that answers
    reads from the snapshot and records misses in a private layer — and
    the private layers are merged back into a master cache with {!absorb}
    between rounds, so warm-up compounds across batches.

    Because cache contents only ever influence parse {e speed}, never
    results (the differential property in [test/test_parallel.ml]), any
    interleaving of overlay growth and absorption is observationally
    benign. *)

type frozen

(** Snapshot a cache.  The argument remains usable and mutable; the
    snapshot is independent of it.  Raises [Invalid_argument] on an overlay
    (freeze the master cache the overlays were absorbed into instead). *)
val freeze : t -> frozen

(** A fresh mutable overlay over a frozen snapshot.  Reads fall through to
    the snapshot; writes stay in the overlay.  Many overlays may share one
    snapshot, each confined to a single domain. *)
val overlay : frozen -> t

(** [absorb dst src] merges everything recorded at [src]'s own layer into
    [dst].  States are matched by configuration {e value}
    (exact, since every cache of one analysis shares the same frames
    interner), not by id, so [absorb] is idempotent and — up to id
    assignment, which is unobservable — order-independent. *)
val absorb : t -> t -> unit

val frozen_num_states : frozen -> int
val frozen_num_transitions : frozen -> int

(** Number of DFA states interned at this cache's own layer: overlay-local
    states for an overlay, all states for a plain cache. *)
val overlay_new_states : t -> int

val num_states : t -> int
val num_transitions : t -> int

(** Number of distinct configurations assigned dense ids. *)
val num_configs : t -> int

(** Initial DFA state for a decision nonterminal, if already computed. *)
val find_init : t -> nonterminal -> state_id option

(** Raw variant of {!find_init} for the warm prediction loop: the initial
    state id, or [-1] if not yet computed. *)
val init_get : t -> nonterminal -> int

(** The shared preallocated [(Unique_pred ix, 0)] pair for a production
    index [ix]: a decided prediction at depth 0, as the warm SLL path and
    single-alternative decisions return it. *)
val unique_at : t -> int -> Types.prediction * int

val add_init : t -> nonterminal -> state_id -> unit

(** {1 The first-token decision table}

    One int per (decision nonterminal, lookahead column), where the column
    is the terminal at the lookahead position, or the end of input: the
    production this cache's DFA decides after reading at most that one
    token, so that a warm prediction is one array read.

    {!create} (and the image loaders) prefill the static entries.  Every
    single-alternative decision is one.  So is every one-candidate cell of
    {!Analysis.ll1_cells}, provided every nonterminal is reachable and
    productive and none is left-recursive.  For such a grammar a one-token
    move of [x]'s initial DFA state keeps exactly the alternatives whose
    PREDICT set holds the token, and the state accepts at end of input
    exactly the nullable alternatives when [follow_end x] holds (DESIGN.md
    §7).  So a static entry is what the DFA would decide, and a cold parse
    builds no DFA state for it.  Every other entry is learned ({!learn})
    from DFA states the general prediction path has built.  For a grammar
    that gets the LL(1) cells, a learned entry is always a settled miss,
    since the cells already hold every decision one token settles.
    {!copy}, {!freeze}, {!overlay} and {!absorb} carry the table.  Images
    do not store it: a loaded cache starts from the static entries and
    relearns the rest from the image's states.

    An entry [e >= 0] is [(p lsl 2) lor tag], for production [p]:
    - [tag] 0 or 1: decided by a DFA walk at that depth;
    - [tag = 2]: a single-alternative decision, which walks no DFA;
    - [tag = 3]: a static LL(1) cell, which stands for a walk at depth 1
      on a terminal column and at depth 0 on the end-of-input column.
    A negative entry is a miss. *)

(** The table itself, row-major with [num_terminals + 1] columns (the last
    one for the end of input), for the machine's inline read.  Its length
    never changes; callers must not write it. *)
val decisions : t -> int array

(** The table entry for decision [x] at position [i] of [w]: [-1] while
    unknown, [-2] where no production is tabled (the DFA needs more
    lookahead, rejects or fails over to LL, or the token's terminal id is
    outside the grammar). *)
val decision : t -> nonterminal -> Word.t -> int -> int

(** Fill the entry for decision [x] at position [i] of [w] from the DFA
    states already in the cache; a no-op while they are missing. *)
val learn : t -> nonterminal -> Word.t -> int -> unit

(** {1 Learn-back}

    A cache logs what it learns by itself: each first-token cell
    {!learn} fills and each image state whose {!info} it decodes.  A
    forked worker sends its log to the parent, which {!replay}s it on its
    own cache, so the next workers it forks inherit the warm table and
    the decoded states.  Both are facts of the grammar's DFA, not of one
    cache, as {!absorb} assumes of an overlay's table. *)

type learned =
  | Learned_cell of nonterminal * int
      (** a table cell: the decision and its column (a terminal, or
          [num_terminals] for the end of input) *)
  | Decoded_state of state_id  (** an image state whose info was decoded *)

(** Number of entries logged so far; a mark for {!learned_since}. *)
val learned_count : t -> int

(** The entries logged after [mark], oldest first. *)
val learned_since : t -> int -> learned list

(** [replay c entries] recomputes each entry from [c]'s own states: a
    cell [c] does not know yet is learned by column (a no-op while [c]
    lacks the states it needs), a state's info is decoded.  No
    value is copied from the log, and an entry whose nonterminal, column
    or state is out of range for [c] is ignored. *)
val replay : t -> learned list -> unit

(** [intern cache configs] returns the id for this canonical configuration
    set, allocating (and precomputing {!info} for) a fresh state if new. *)
val intern : t -> Config.sll list -> state_id

val info : t -> state_id -> info

val find_trans : t -> state_id -> terminal -> state_id option

(** Raw transition read for the warm prediction loop: the successor state
    id, or [-1] if the transition has not been computed. *)
val trans_get : t -> state_id -> terminal -> int

(** Record a transition.  Idempotent: re-adding an existing transition
    neither changes the successor nor double-counts {!num_transitions}. *)
val add_trans : t -> state_id -> terminal -> state_id -> unit

(** Memoized single-configuration closures.  The closure of a configuration
    set is the union of its members' closures, and identical configurations
    recur constantly across DFA states, so caching per-configuration results
    removes most closure work once the cache is warm.  Alongside the stable
    configurations each entry records whether the closure performed a
    stable-return fork (simulated return past the truncated stack, §3.5) —
    the spot where SLL overapproximates LL; the static analyzer reads the
    flag through {!Sll.closure_cached}, which keys the memo on
    configurations with the prediction label erased. *)
val find_closure :
  t -> Config.sll -> (Config.sll list * bool, Types.error) result option

val add_closure :
  t -> Config.sll -> (Config.sll list * bool, Types.error) result -> unit

(** {1 Persistence: flat cache images (format v3)}

    A cache — typically one fully populated offline by
    [Costar_predict_analysis.Analyze.analyze] — can be saved and reloaded
    so parses start warm.  The one on-disk format is the flat image: the
    frozen cache — state configurations, the dense terminal-indexed
    transition matrix, initial states — encoded as one contiguous
    int32-little-endian word array with a validated header
    (magic, version, endian sentinel, grammar fingerprint, suffix-table
    digest, FNV-1a payload checksum; word discipline shared with
    [costar tables] via {!Costar_grammar.Flatimg}).

    {!load_image} maps the file read-only with [Unix.map_file] and serves
    predictions straight off the mapping: transition reads are single
    unboxed word loads against the page cache, state infos are decoded
    lazily per state on first touch, and N processes mapping the same file
    share one physical copy with zero deserialization — the substrate of
    the prefork serving tier (DESIGN.md §13).  Everything is
    bounds-and-range validated before any offset is trusted.  Closure
    memos and the first-token table are not stored; they are recomputed
    deterministically on demand.  Nothing read from a file is ever
    unmarshalled. *)

type image_error =
  | Img_io of string  (** open/read/mmap failure, with the reason *)
  | Img_bad_magic
  | Img_bad_version of int  (** found this version on disk *)
  | Img_endian_mismatch
      (** byte-swapped mapping (big-endian host); the file itself may be
          fine — {!load_image} falls back to the heap decode *)
  | Img_truncated
  | Img_checksum_mismatch
  | Img_fingerprint_mismatch  (** built for a different grammar *)
  | Img_digest_mismatch  (** built against a different suffix table *)
  | Img_malformed of string  (** structural validation failed: what *)

val image_error_to_string : image_error -> string

(** Encode a cache (typically a fully analyzed one) as a v3 image. *)
val image_bytes : fingerprint:string -> t -> string

(** [save_image ~fingerprint c file] writes {!image_bytes} to [file]. *)
val save_image : fingerprint:string -> t -> string -> unit

(** Decode an in-memory image into an ordinary heap cache, re-interning
    states in id order (the differential oracle for {!load_image}). *)
val of_image_bytes :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Map [file] read-only and return an image-backed cache serving reads
    from the mapping.  Falls back to the heap decode on a byte-swapped
    (big-endian) host, where zero-copy mapping is not available. *)
val load_image :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Load [file] through the heap-decode path (same validation, no mmap). *)
val load_image_heap :
  anl:Analysis.t -> fingerprint:string -> string -> (t, image_error) result

(** Whether this cache serves reads from a mapped image. *)
val image_backed : t -> bool
