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
  st_forked : int;  (** worker processes this call forked ({!run_prefork}; 0 otherwise) *)
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

    {b Pools.}  The workers are forked by the first call on [p] and kept,
    warm, for its later calls: a worker keeps its DFA states, its table
    cells and its event density from call to call.  A call reuses [p]'s
    pool when it has [workers] workers and [tokenize] is the pool's
    tokenizer: the same closure, or a closure of the same code over
    physically equal captured values, so that a partial application
    [tokenize l] rebuilt for each call counts as the same tokenizer (the
    native compiler gives each application site its own code, so it must
    be built at one site).  Any
    other tokenizer or worker count shuts the old pool down and forks a
    new one.  Workers see [p] and [tokenize] as they were when forked:
    later changes to either in the caller reach a worker only when it is
    forked again.  A pool ends when [p] is collected (its pipes are
    closed, the workers exit, and a later call or {!shutdown} reaps
    them), at {!shutdown}, or at exit; only the process that forked it
    ends it.  A finaliser on [p] holds the pool, so a [tokenize] that
    captures [p] keeps both until {!shutdown}.

    {b A call.}  Each worker has its own request pipe and takes one file
    at a time, its index and its text, so large files load-balance.  A
    [Unique]/[Ambig] tree over a {!Word.of_buf} word does not cross the
    pipe: the worker writes its events and the word's token arrays into
    its own result file (in [/dev/shm] when it is writable, else in
    [Filename.get_temp_dir_name ()], unlinked before the fork) and sends
    a fixed header.  The parent reads each such result out of the file
    into a fresh bigarray (it never maps the file) and builds it over its
    own [inputs.(i)], so results do not refer to the files the workers
    rewrite on the next call.  A header whose region or token offsets
    fall outside the file or the input becomes a per-file [Error].  Rejects, lexer errors and trees over
    {!Word.of_tokens} words come back marshalled.  A worker crash loses
    only its in-flight file, which surfaces as a per-file [Error];
    remaining files are parsed by the surviving workers, and the next
    call forks a replacement.  A worker that cannot write its file
    because the file system is full dies of [SIGBUS], which is such a
    crash.

    A worker parses such a tree straight into its result file when the
    room it reserves, sized by its event density, holds it; otherwise it
    copies the tree there and raises its density.  It runs on a fresh
    small minor heap, so it does not copy the parent's.  What a worker's
    cache learns by itself — first-token table cells and decoded image
    states — comes back with each call and is replayed on [p]'s base
    cache ({!Costar_core.Cache.replay}), and [p]'s event density becomes
    the largest among the call's trees, so that replacement workers start
    warm.  DFA states a worker interns stay in that worker.  Verdicts are
    byte-identical to sequential parsing — cache contents never influence
    results.

    Must be called from a single-domain process ([Unix.fork] does not
    carry other domains into the child).  In [stats], [st_domains] counts
    workers, [st_forked] the workers this call forked, and each
    [st_per_domain] entry that worker's files, bytes, new states and
    instrumentation counters for this call alone. *)
val run_prefork :
  ?workers:int ->
  Costar_core.Parser.t ->
  tokenize:(string -> (Word.t, string) result) ->
  string array ->
  (Costar_core.Parser.result, string) result array * stats

(** Shut down every prefork pool this process forked: close their pipes
    and result files, and wait for every worker, including those of
    pools released earlier.  The next {!run_prefork} forks afresh.  Runs
    at exit. *)
val shutdown : unit -> unit
