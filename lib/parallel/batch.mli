(** Domain-pool batch parsing: shard a corpus of inputs across OCaml 5
    domains, each parsing with the existing zero-copy buffer pipeline.

    The engine's contract (DESIGN.md §9):

    - Everything the parse path reads — grammar tables, analysis,
      compiled scanners, the frozen DFA snapshot — is published before
      [Domain.spawn] and never mutated while workers run, so workers
      share it without locks.
    - Every worker consults the snapshot through a private
      {!Costar_core.Cache.overlay}; what an input teaches lands in the
      overlay, never in shared state.  The one shared mutable structure,
      the {!Costar_grammar.Frames} interner, serializes its (slow-path)
      mutators internally.
    - Between rounds the overlays are merged into the parser's base cache
      with {!Costar_core.Cache.absorb} and a fresh snapshot is cut, so
      warm-up compounds across rounds and leaks back to sequential use of
      the same parser.
    - Cache contents never influence parse results, only speed, so a batch
      run is result-identical to parsing the corpus sequentially — the
      differential property pinned by [test/test_parallel.ml]. *)

open Costar_grammar

(** Per-worker accounting, indexed by domain.  [cache] holds the DFA
    counters ({!Costar_core.Instr.cache_counters}) summed over the worker's
    rounds — populated only while [Instr.enabled] is set, zero otherwise. *)
type domain_stats = {
  ds_files : int;
  ds_bytes : int;
  ds_new_states : int;  (** DFA states this worker interned past the snapshots *)
  ds_cache : Costar_core.Instr.cache_counters;
}

type stats = {
  st_domains : int;
  st_rounds : int;
  st_files : int;
  st_bytes : int;
  st_states_before : int;  (** base-cache states before the batch *)
  st_states_after : int;  (** after all overlays were absorbed *)
  st_per_domain : domain_stats array;
}

(** [run_batch p ~tokenize inputs] parses every input and returns one
    verdict per input, in order: [Ok r] the parser's verdict, [Error msg] a
    tokenizer failure.  [tokenize] must be safe to call concurrently from
    several domains once it has been called once — true of
    [Lang.tokenize_buf] (the compiled-scanner lazy is forced by the
    engine's warm-up call on the spawning domain; after that the scanner is
    read-only).

    [domains] defaults to [Domain.recommended_domain_count ()]; workers are
    always spawned, even for [domains = 1], so counters and domain-local
    state behave uniformly.  [round_size] (default: the whole corpus)
    bounds the number of files handed out per round; between rounds the
    worker overlays are absorbed into [Parser.base_cache p] and a fresh
    snapshot is frozen, so later rounds start warmer. *)
val run_batch :
  ?domains:int ->
  ?round_size:int ->
  Costar_core.Parser.t ->
  tokenize:(string -> (Word.t, string) result) ->
  string array ->
  (Costar_core.Parser.result, string) result array * stats

(** [run_prefork ~workers p ~tokenize inputs] parses the corpus with
    [workers] forked {e processes} instead of domains (DESIGN.md §13).
    Each worker has its own runtime and minor heap — no shared
    stop-the-world minor collections, the scaling limit of the domain
    engine on allocation-heavy parses (E15/E16) — and inherits the
    parser, scanner tables and base cache copy-on-write; when the base is
    an mmapped v3 cache image ({!Costar_core.Cache.load_image}), all
    workers read one physical copy of the transition matrix.

    Work is sharded over a shared pipe of 4-byte file indices (atomic
    writes, blocking one-index reads — the process analogue of
    [run_batch]'s atomic cursor); each worker reports over its own pipe,
    multiplexed by the parent with [select].  A [Unique]/[Ambig] tree
    over a {!Word.of_buf} word does not cross the pipe: the worker copies
    its events and the word's token arrays into a result file the parent
    created and unlinked before forking (in [/dev/shm] when it is
    writable, else in [Filename.get_temp_dir_name ()]), and sends a fixed
    header.  The parent maps each worker's file once and returns such a
    tree as views into that mapping over its own [inputs.(i)]; the mapping
    is released when the last view of it is collected.  A header whose
    region or token offsets fall outside the file or the input becomes a
    per-file [Error].  Rejects, lexer errors and trees over
    {!Word.of_tokens} words come back marshalled.  A worker crash loses
    only its in-flight file, which surfaces as a per-file [Error];
    remaining files are parsed by the surviving workers.  A worker that
    cannot write its file because the file system is full dies of
    [SIGBUS], which is such a crash.

    A worker parses such a tree straight into its result file when the
    room it reserves, sized by the parser's event density, holds it;
    otherwise it copies the tree there.  It runs on a fresh small minor
    heap, so it does not copy the parent's.  What a worker's cache
    learns by itself — first-token table cells and decoded image states
    — comes back in its final frame and is replayed on [p]'s base cache
    ({!Costar_core.Cache.replay}), and [p]'s event density becomes the
    largest among the call's trees, so the next call's workers start
    warm.  DFA states a worker interns past its base die with it, unlike
    [run_batch]'s overlays.  Verdicts are byte-identical to sequential
    parsing — cache contents never influence results.

    Must be called from a single-domain process ([Unix.fork] does not
    carry other domains into the child).  In [stats], [st_domains] counts
    workers and [ds_cache] holds each worker's own instrumentation
    totals. *)
val run_prefork :
  ?workers:int ->
  Costar_core.Parser.t ->
  tokenize:(string -> (Word.t, string) result) ->
  string array ->
  (Costar_core.Parser.result, string) result array * stats
