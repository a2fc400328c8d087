(** Optional prediction instrumentation (disabled by default).

    When [enabled] is set, SLL and LL prediction record, per decision
    nonterminal, how many times they ran and how many tokens of lookahead
    they consumed; the DFA cache additionally counts state interns,
    transition hits/misses and closure-memo hits/misses.  Used by
    [costar parse --stats], the benchmark harness and for performance
    debugging; zero-cost-ish when disabled (one branch per event).

    All counters live in domain-local storage: each domain accumulates its
    own tallies, so parallel batch workers never contend (and per-domain
    DFA hit rates fall out for free — a worker snapshots [cache_totals]
    before it joins).  [enabled] stays a single global flag, flipped only
    while no worker domains are running. *)

let enabled = ref false

(* Decision/production/edge coverage recording (see [cov_*] below) is a
   separate flag: the coverage driver wants hit counts without paying for
   the per-decision lookahead histograms, and vice versa. *)
let cov_enabled = ref false

type counter = {
  mutable calls : int;
  mutable tokens : int;
}

(** DFA cache counters (see {!Cache} and {!Sll.loop}): how often the warm
    path hit a precomputed transition vs fell back to closure work, how many
    states were interned, and how the per-configuration closure memo fared. *)
type cache_counters = {
  mutable state_interns : int;
  mutable trans_hits : int;
  mutable trans_misses : int;
  mutable closure_hits : int;
  mutable closure_misses : int;
  mutable table_hits : int;
      (** predictions the first-token table answered (a subset of the SLL
          calls; not a DFA-walk counter) *)
  mutable static_hits : int;
      (** table hits on static LL(1) entries before a token: each stands
          for the one DFA transition its walk would have read (a subset of
          [table_hits]) *)
}

(** Coverage tallies for one domain.  Keys are the dense ids the rest of
    the system already uses: global production index for [prods], decision
    nonterminal for [decisions], (DFA state id, terminal id) for [edges].
    Edge ids only mean something relative to the cache that interned the
    states, so a coverage run must pass one cache to every parse (the
    cover driver reuses the static analyzer's cache for exactly this
    reason). *)
type cov_counters = {
  prods : (int, int) Hashtbl.t;
  decisions : (int, int) Hashtbl.t;
  edges : (int * int, int) Hashtbl.t;
}

type state = {
  sll_tbl : (int, counter) Hashtbl.t;
  ll_tbl : (int, counter) Hashtbl.t;
  cache : cache_counters;
  cov : cov_counters;
}

let key =
  Domain.DLS.new_key (fun () ->
      {
        sll_tbl = Hashtbl.create 64;
        ll_tbl = Hashtbl.create 64;
        cache =
          {
            state_interns = 0;
            trans_hits = 0;
            trans_misses = 0;
            closure_hits = 0;
            closure_misses = 0;
            table_hits = 0;
            static_hits = 0;
          };
        cov =
          {
            prods = Hashtbl.create 64;
            decisions = Hashtbl.create 16;
            edges = Hashtbl.create 64;
          };
      })

let state () = Domain.DLS.get key

let record tbl x n =
  let c =
    match Hashtbl.find_opt tbl x with
    | Some c -> c
    | None ->
      let c = { calls = 0; tokens = 0 } in
      Hashtbl.add tbl x c;
      c
  in
  c.calls <- c.calls + 1;
  c.tokens <- c.tokens + n

let record_sll x n = if !enabled then record (state ()).sll_tbl x n
let record_ll x n = if !enabled then record (state ()).ll_tbl x n

(* A hit in the first-token decision table ({!Cache.decisions}) counts as
   the DFA walk it replaces: one SLL call at the entry's depth, plus the
   transition hit a depth-1 walk reads.  A single-alternative entry
   replaces no walk and counts nothing.  A static LL(1) entry (tag 3)
   counts the SLL call at its depth: before a token, depth 1 and a static
   hit in place of the transition hit, since no DFA row was read; at the
   end of input, depth 0 like any other depth-0 entry. *)
let record_table_hit x e ~at_end =
  if !enabled then begin
    let c = (state ()).cache in
    c.table_hits <- c.table_hits + 1;
    match e land 3 with
    | 0 -> record_sll x 0
    | 1 ->
      record_sll x 1;
      c.trans_hits <- c.trans_hits + 1
    | 2 -> ()
    | _ ->
      if at_end then record_sll x 0
      else begin
        record_sll x 1;
        c.static_hits <- c.static_hits + 1
      end
  end

let record_state_intern () =
  if !enabled then
    let c = (state ()).cache in
    c.state_interns <- c.state_interns + 1

let record_trans_hit () =
  if !enabled then
    let c = (state ()).cache in
    c.trans_hits <- c.trans_hits + 1

let record_trans_miss () =
  if !enabled then
    let c = (state ()).cache in
    c.trans_misses <- c.trans_misses + 1

let record_closure_hit () =
  if !enabled then
    let c = (state ()).cache in
    c.closure_hits <- c.closure_hits + 1

let record_closure_miss () =
  if !enabled then
    let c = (state ()).cache in
    c.closure_misses <- c.closure_misses + 1

(* --- Coverage events ----------------------------------------------------- *)

let bump_n tbl k n =
  match Hashtbl.find_opt tbl k with
  | Some m -> Hashtbl.replace tbl k (m + n)
  | None -> Hashtbl.add tbl k n

let bump tbl k = bump_n tbl k 1

(** A production was committed to by the machine (a push). *)
let record_cov_prod ix = if !cov_enabled then bump (state ()).cov.prods ix

(** A genuine multi-alternative prediction ran for nonterminal [x]. *)
let record_cov_decision x = if !cov_enabled then bump (state ()).cov.decisions x

(** The prediction DFA took edge [sid --a-->] (whether precomputed or
    built on the fly). *)
let record_cov_edge sid a = if !cov_enabled then bump (state ()).cov.edges (sid, a)

(** Snapshots of the calling domain's coverage tallies. *)
let cov_prod_hits () =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) (state ()).cov.prods []

let cov_decision_hits () =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) (state ()).cov.decisions []

let cov_edge_hits () =
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) (state ()).cov.edges []

(** Fold another domain's snapshots into association lists (used by the
    batch driver to merge worker tallies before reporting). *)
let merge_hits base extra =
  let tbl = Hashtbl.create (List.length base + List.length extra) in
  List.iter (fun (k, n) -> bump_n tbl k n) base;
  List.iter (fun (k, n) -> bump_n tbl k n) extra;
  Hashtbl.fold (fun k n acc -> (k, n) :: acc) tbl []

(** Reset only the coverage tallies of the calling domain. *)
let cov_reset () =
  let c = (state ()).cov in
  Hashtbl.reset c.prods;
  Hashtbl.reset c.decisions;
  Hashtbl.reset c.edges

(** Reset the calling domain's counters. *)
let reset () =
  let st = state () in
  Hashtbl.reset st.sll_tbl;
  Hashtbl.reset st.ll_tbl;
  st.cache.state_interns <- 0;
  st.cache.trans_hits <- 0;
  st.cache.trans_misses <- 0;
  st.cache.closure_hits <- 0;
  st.cache.closure_misses <- 0;
  st.cache.table_hits <- 0;
  st.cache.static_hits <- 0

(** Totals for the calling domain: (sll calls, sll lookahead tokens,
    ll calls, ll lookahead). *)
let totals () =
  let st = state () in
  let sum tbl f = Hashtbl.fold (fun _ c acc -> acc + f c) tbl 0 in
  ( sum st.sll_tbl (fun c -> c.calls),
    sum st.sll_tbl (fun c -> c.tokens),
    sum st.ll_tbl (fun c -> c.calls),
    sum st.ll_tbl (fun c -> c.tokens) )

(** A copy of the calling domain's DFA cache counters. *)
let cache_totals () =
  let c = (state ()).cache in
  { c with state_interns = c.state_interns }

(** Sum a list of counter snapshots (e.g. one per worker domain). *)
let sum_cache_counters l =
  List.fold_left
    (fun acc c ->
      {
        state_interns = acc.state_interns + c.state_interns;
        trans_hits = acc.trans_hits + c.trans_hits;
        trans_misses = acc.trans_misses + c.trans_misses;
        closure_hits = acc.closure_hits + c.closure_hits;
        closure_misses = acc.closure_misses + c.closure_misses;
        table_hits = acc.table_hits + c.table_hits;
        static_hits = acc.static_hits + c.static_hits;
      })
    {
      state_interns = 0;
      trans_hits = 0;
      trans_misses = 0;
      closure_hits = 0;
      closure_misses = 0;
      table_hits = 0;
      static_hits = 0;
    }
    l

(** Per-nonterminal rows for the calling domain, sorted by lookahead
    volume: (nt, mode, calls, tokens). *)
let report () =
  let st = state () in
  let rows tbl mode =
    Hashtbl.fold (fun x c acc -> (x, mode, c.calls, c.tokens) :: acc) tbl []
  in
  List.sort
    (fun (_, _, _, t1) (_, _, _, t2) -> compare t2 t1)
    (rows st.sll_tbl `Sll @ rows st.ll_tbl `Ll)
