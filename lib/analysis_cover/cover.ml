(* Decision-coverage universe over the interned grammar and its compiled
   artifacts (see DESIGN.md §12).

   The universe enumerates every target a parse (or scan) could exercise:

   - every production (committed to by a machine push);
   - every SLL decision point (a multi-alternative prediction run);
   - every cached prediction-DFA edge, as explored offline by the static
     analyzer — state ids are the analyzer cache's own, and runtime parses
     run through that same cache so runtime-covered edges and universe
     edges agree by construction;
   - every lexer-DFA byte-class transition, when the source has a scanner.

   Each target is tagged statically: [Coverable] when some concrete input
   can exercise it, or [Dead] with one of the C-codes (C001 dead
   production, C002 unreachable decision edge, C003 dead lexer-class
   transition) and a reason derived from the grammar dataflow facts.  Runtime
   runs then fill in hit counts — from the [Costar_core.Instr] coverage
   counters for parser-level targets, and from a byte-level DFA replay
   (this module, not the hot scanner) for lexer transitions.  What is
   coverable but unhit is the residue; [Witness.close] tries to generate a
   sentence per residual target. *)

open Costar_grammar
open Costar_grammar.Symbols
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module Instr = Costar_core.Instr
module Analyze = Costar_predict_analysis.Analyze
module D = Costar_lint.Diagnostic
module Lint = Costar_lint.Lint
module Dfa = Costar_lex.Dfa
module Scanner = Costar_lex.Scanner

type target =
  | Prod of int  (** production index, as in {!Grammar.prod} *)
  | Decision of nonterminal  (** a multi-alternative prediction ran *)
  | Edge of int * terminal  (** (analyzer-cache DFA state, lookahead) *)
  | Lex_trans of int * int  (** (lexer DFA state, byte class) *)

type status =
  | Coverable
  | Dead of { code : string; reason : string }

type entry = {
  target : target;
  status : status;
  mutable hits : int;
}

type t = {
  g : Grammar.t;
  anl : Analysis.t;
  parser_ : P.t;
  result : Analyze.t;
  scanner : Scanner.t option;
  dfa : Dfa.t option;
  n_states : int;  (** universe DFA states (the cache may grow past this) *)
  u_reach : bool array;
      (** usefully reachable: reachable through occurrences whose sibling
          symbols are all productive, so a complete sentence exists around
          every such occurrence (strictly stronger than REACHABLE) *)
  u_why : (int * int) array;  (** (prod, pos) parent edge of [u_reach] *)
  exit_yield : terminal list option array;
      (** per nonterminal, a yield ending in a committed exit token — the
          sibling fill that realizes exit-freedom (shortest yields often
          vanish it); [None] when the nonterminal is not exit-free *)
  owner : int array;  (** DFA state -> owning decision nonterminal, or -1 *)
  entries : entry array;
  decision_ix : (int, int) Hashtbl.t;
  edge_ix : (int * int, int) Hashtbl.t;
  lex_ix : (int * int, int) Hashtbl.t;
}

(* --- Static structure ---------------------------------------------------- *)

(* Useful reachability: BFS from the start symbol descending only into
   occurrences whose sibling symbols are all productive.  Analysis' REACHABLE
   admits contexts that can never be completed into a sentence (an
   unproductive sibling poisons the whole derivation); the generator needs
   the stronger fact, and the parent edges double as its derivation
   backbone. *)
let useful_reachability g anl =
  let n = Grammar.num_nonterminals g in
  let reach = Array.make n false in
  let why = Array.make n (-1, -1) in
  let q = Queue.create () in
  let productive_sym = function
    | T _ -> true
    | NT z -> Analysis.productive anl z
  in
  reach.(Grammar.start g) <- true;
  Queue.add (Grammar.start g) q;
  while not (Queue.is_empty q) do
    let y = Queue.pop q in
    List.iter
      (fun ix ->
        let rhs = (Grammar.prod g ix).rhs in
        let siblings_ok pos =
          let rec go j = function
            | [] -> true
            | s :: rest -> (j = pos || productive_sym s) && go (j + 1) rest
          in
          go 0 rhs
        in
        List.iteri
          (fun pos -> function
            | T _ -> ()
            | NT x ->
              if (not reach.(x)) && siblings_ok pos then begin
                reach.(x) <- true;
                why.(x) <- (ix, pos);
                Queue.add x q
              end)
          rhs)
      (Grammar.prods_of g y)
  done;
  (reach, why)

(* Decisions whose entry lookahead is "free": some usable context pushes
   [x] with the next input token unconstrained by any enclosing
   prediction, so ANY terminal can sit at the decision point.  When x is
   NOT free, every context pinches through an enclosing committing
   prediction scanning from the same input position — so a terminal
   outside FIRST(x) (∪ FOLLOW(x) when x is nullable) can never be the
   lookahead at x's own decision, and the corresponding initial-state DFA
   edges are statically dead.

   The subtlety is that a token earlier in the sentence is not enough:
   the decisions *between* consuming that token and pushing x (trailing
   star/opt exits, ε commitments of nullable prefixes) are keyed on the
   very lookahead position we want to free.  Three mutually recursive
   facts capture "no decision in between":

   - trivial_eps(z): z derives ε through single-alternative (or
     closure-pre-decided) productions only — it vanishes without running
     a committing prediction;
   - exit_free(z): some usable production of z ends in a terminal, or in
     an exit-free nonterminal, modulo trivially-vanishing nullable tails
     — after z's subparse the next token is unconstrained;
   - free(x): some usable occurrence y → α x β where, walking α backward
     from x, the first non-trivially-vanishing symbol is a terminal or an
     exit-free nonterminal; or the whole prefix vanishes trivially and
     the (free) parent commits without scanning (single-alternative or
     pre-decided) — plus the start symbol.

   A freeing token is still not enough when the PARENT's own prediction
   must scan past x's position before committing (deep-lookahead
   pipelining: element → '<' NAME attrs• — the decision between the two
   element alternatives resolves only at '>' or '/>', beyond attrs).  The
   analyzer's DFA decides this exactly: an occurrence frees x only if the
   parent can commit to that production within the tokens its prefix can
   supply (commit depth from the cached DFA vs. the prefix's maximal
   yield).  If every committing scan covers x's position, the surviving
   configurations at that offset all read FIRST(x) (or the stable-return
   set ⊆ FOLLOW(x)) — which is exactly the deadness test.

   Freedom remains an overapproximation in one direction only (a
   committing word need not be consistent with the chosen prefix
   derivation): claiming free for a constrained decision costs a failed
   generation, reported as honest C002 residue, while the dead tags —
   which rely on ¬free — stay sound for the SLL machine (the LL fallback
   only ever runs after an EOF-ambiguous scan, which has covered every
   position already).

   Exit-freedom is computed constructively: instead of a boolean fixpoint
   the relaxation builds, per nonterminal, an EXIT YIELD — a concrete
   terminal yield ending in the committed exit token (['strict'] for an
   optional keyword, ['{'; '}'] for a bracketed alternative).  The
   generator needs it verbatim: the shortest yield of an exit-free
   sibling usually vanishes the very token that frees the position. *)
let free_lookahead g anl (result : Analyze.t) u_reach =
  let cache = result.Analyze.cache in
  let n = Grammar.num_nonterminals g in
  let nullable z = Analysis.nullable anl z in
  let productive_sym = function
    | T _ -> true
    | NT z -> Analysis.productive anl z
  in
  let usable ix = List.for_all productive_sym (Grammar.prod g ix).rhs in
  let single y = match Grammar.prods_of g y with [ _ ] -> true | _ -> false in
  let pre_decided y ix =
    (* Closure killed every rival alternative: the decision commits
       without scanning, constraining nothing. *)
    match Cache.find_init cache y with
    | Some s0 -> (Cache.info cache s0).Cache.verdict = Cache.V_all_pred ix
    | None -> false
  in
  (* Maximal yield length per nonterminal, saturated: any growth still
     happening after n rounds is a positive-length cycle, hence ∞. *)
  let inf = max_int / 4 in
  let maxy = Array.make n 0 in
  let sum_sat a b = if a >= inf || b >= inf || a + b >= inf then inf else a + b in
  let max_yield_seq syms =
    List.fold_left
      (fun acc -> function
        | T _ -> sum_sat acc 1
        | NT z -> sum_sat acc maxy.(z))
      0 syms
  in
  for _ = 0 to n do
    for z = 0 to n - 1 do
      List.iter
        (fun ix ->
          if usable ix then
            let l = max_yield_seq (Grammar.prod g ix).rhs in
            if l > maxy.(z) then maxy.(z) <- min l inf)
        (Grammar.prods_of g z)
    done
  done;
  let bumped = ref false in
  for z = 0 to n - 1 do
    List.iter
      (fun ix ->
        if usable ix && max_yield_seq (Grammar.prod g ix).rhs > maxy.(z)
        then begin
          maxy.(z) <- inf;
          bumped := true
        end)
      (Grammar.prods_of g z)
  done;
  if !bumped then
    (* One more saturating sweep so ∞ propagates to callers. *)
    for _ = 0 to n do
      for z = 0 to n - 1 do
        List.iter
          (fun ix ->
            if usable ix then
              let l = max_yield_seq (Grammar.prod g ix).rhs in
              if l > maxy.(z) then maxy.(z) <- min l inf)
          (Grammar.prods_of g z)
      done
    done;
  (* Shortest DFA scan after which decision [y] commits to production
     [ix] (V_all_pred states, reached through pending states), from one
     BFS per decision. *)
  let commit_depths = Hashtbl.create 16 in
  List.iter
    (fun (d : Analyze.decision) ->
      let y = d.Analyze.nt in
      let depths = Hashtbl.create 4 in
      (match Cache.find_init cache y with
      | None -> ()
      | Some s0 ->
        let nst = Cache.num_states cache in
        let dist = Array.make nst (-1) in
        let q = Queue.create () in
        let note s =
          match (Cache.info cache s).Cache.verdict with
          | Cache.V_all_pred p ->
            if not (Hashtbl.mem depths p) then Hashtbl.add depths p dist.(s)
          | _ -> ()
        in
        if s0 < nst then begin
          dist.(s0) <- 0;
          Queue.add s0 q;
          note s0
        end;
        while not (Queue.is_empty q) do
          let s = Queue.pop q in
          if (Cache.info cache s).Cache.verdict = Cache.V_pending then
            for a = 0 to Grammar.num_terminals g - 1 do
              let s' = Cache.trans_get cache s a in
              if s' >= 0 && s' < nst && dist.(s') < 0 then begin
                dist.(s') <- dist.(s) + 1;
                note s';
                Queue.add s' q
              end
            done
        done);
      Hashtbl.replace commit_depths y depths)
    result.Analyze.decisions;
  (* Can [y]'s decision commit to [ix] after at most [avail] tokens? *)
  let commits_within y ix avail =
    single y || pre_decided y ix
    ||
    match Hashtbl.find_opt commit_depths y with
    | None -> false
    | Some depths -> (
      match Hashtbl.find_opt depths ix with
      | Some depth -> depth <= avail
      | None -> false)
  in
  let trivial = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    for z = 0 to n - 1 do
      if
        (not trivial.(z))
        && List.exists
             (fun ix ->
               (single z || pre_decided z ix)
               && List.for_all
                    (function T _ -> false | NT w -> trivial.(w))
                    (Grammar.prod g ix).rhs)
             (Grammar.prods_of g z)
      then begin
        trivial.(z) <- true;
        changed := true
      end
    done
  done;
  let exy : terminal list option array = Array.make n None in
  let exitf w = exy.(w) <> None in
  let min_yield_rev rev_syms =
    Analysis.min_yield_seq anl (List.rev rev_syms)
  in
  (* An exit yield for production [ix] of [z]: walking the rhs backward,
     the last non-trivially-vanishing symbol must be a terminal or carry
     an exit yield itself; everything before it is filled with its
     shortest yield.  The exit token frees the next position only if z's
     own decision can commit to this production before scanning past its
     yield. *)
  let prod_exit_yield z ix =
    let rhs = (Grammar.prod g ix).rhs in
    let rec back = function
      | [] -> None
      | T a :: rest -> (
        match min_yield_rev rest with
        | Some w -> Some (w @ [ a ])
        | None -> None)
      | NT w :: rest -> (
        match exy.(w) with
        | Some wy -> (
          match min_yield_rev rest with
          | Some pre -> Some (pre @ wy)
          | None -> None)
        | None -> if nullable w && trivial.(w) then back rest else None)
    in
    if commits_within z ix (max_yield_seq rhs) then back (List.rev rhs)
    else None
  in
  changed := true;
  while !changed do
    changed := false;
    for z = 0 to n - 1 do
      if exy.(z) = None then
        List.iter
          (fun ix ->
            if exy.(z) = None && usable ix then
              match prod_exit_yield z ix with
              | Some _ as y ->
                exy.(z) <- y;
                changed := true
              | None -> ())
          (Grammar.prods_of g z)
    done
  done;
  let free = Array.make n false in
  let q = Queue.create () in
  let set x =
    if not free.(x) then begin
      free.(x) <- true;
      Queue.add x q
    end
  in
  (* Direct rule: a terminal (or free exit) right before the occurrence,
     modulo trivially-vanishing nullables — whoever the parent is — and
     the parent's own decision able to commit within the prefix (deep
     lookahead pipelining otherwise pins x's position too). *)
  for y = 0 to n - 1 do
    if u_reach.(y) then
      List.iter
        (fun ix ->
          if usable ix then begin
            let arr = Array.of_list (Grammar.prod g ix).rhs in
            Array.iteri
              (fun pos sym ->
                match sym with
                | T _ -> ()
                | NT x ->
                  if not free.(x) then begin
                    let rec back j =
                      j >= 0
                      &&
                      match arr.(j) with
                      | T _ -> true
                      | NT w ->
                        exitf w
                        || (nullable w && trivial.(w) && back (j - 1))
                    in
                    let avail =
                      max_yield_seq
                        (Array.to_list (Array.sub arr 0 pos))
                    in
                    if back (pos - 1) && commits_within y ix avail then
                      set x
                  end)
              arr
          end)
        (Grammar.prods_of g y)
  done;
  set (Grammar.start g);
  (* Inherit closure: a trivially-vanishing prefix under a parent that
     commits without scanning passes the parent's freedom down. *)
  while not (Queue.is_empty q) do
    let y = Queue.pop q in
    List.iter
      (fun ix ->
        if usable ix && (single y || pre_decided y ix) then begin
          let arr = Array.of_list (Grammar.prod g ix).rhs in
          Array.iteri
            (fun pos sym ->
              match sym with
              | NT x when not free.(x) ->
                let rec back j =
                  j < 0
                  ||
                  match arr.(j) with
                  | T _ -> false
                  | NT w -> nullable w && trivial.(w) && back (j - 1)
                in
                if back (pos - 1) then set x
              | _ -> ())
            arr
        end)
      (Grammar.prods_of g y)
  done;
  (free, exy)

(* Which decision owns each cached DFA state: BFS from every decision's
   initial state over the cached transitions.  States are interned config
   sets whose members carry decision-specific production indices, so the
   per-decision DFAs are disjoint in practice; first owner wins. *)
let compute_owners g (result : Analyze.t) =
  let cache = result.Analyze.cache in
  let n = Cache.num_states cache in
  let nterms = Grammar.num_terminals g in
  let owner = Array.make n (-1) in
  List.iter
    (fun (d : Analyze.decision) ->
      match Cache.find_init cache d.Analyze.nt with
      | None -> ()
      | Some sid0 ->
        let q = Queue.create () in
        let visit sid =
          if sid < n && owner.(sid) < 0 then begin
            owner.(sid) <- d.Analyze.nt;
            Queue.add sid q
          end
        in
        visit sid0;
        while not (Queue.is_empty q) do
          let sid = Queue.pop q in
          for a = 0 to nterms - 1 do
            let sid' = Cache.trans_get cache sid a in
            if sid' >= 0 then visit sid'
          done
        done)
    result.Analyze.decisions;
  owner

let dead code reason = Dead { code; reason }

let make ?scanner g =
  let parser_ = P.make g in
  let anl = P.analysis parser_ in
  let result = Analyze.analyze ~analysis:anl g in
  let cache = result.Analyze.cache in
  let u_reach, u_why = useful_reachability g anl in
  let free, exit_yield = free_lookahead g anl result u_reach in
  let owner = compute_owners g result in
  let dfa = Option.map Scanner.dfa scanner in
  let entries = ref [] in
  let count = ref 0 in
  let push e =
    entries := e :: !entries;
    incr count;
    !count - 1
  in
  (* Productions, in index order (entry index = production index). *)
  Array.iter
    (fun (p : Grammar.production) ->
      let status =
        if not (Analysis.reachable anl p.lhs) then
          dead "C001"
            (Printf.sprintf "`%s` is unreachable from the start symbol (G001)"
               (Names.nonterminal g p.lhs))
        else
          match
            List.find_opt
              (function NT y -> not (Analysis.productive anl y) | T _ -> false)
              p.rhs
          with
          | Some (NT y) ->
            dead "C001"
              (Printf.sprintf
                 "`%s` derives no terminal string (G002), so no successful \
                  parse commits to this alternative (F001)"
                 (Names.nonterminal g y))
          | _ ->
            if not u_reach.(p.lhs) then
              dead "C001"
                (Printf.sprintf
                   "every occurrence of `%s` has an unproductive sibling \
                    symbol: no complete sentence reaches this alternative"
                   (Names.nonterminal g p.lhs))
            else Coverable
      in
      ignore (push { target = Prod p.ix; status; hits = 0 }))
    (Grammar.prods g);
  (* Decision points. *)
  let decision_ix = Hashtbl.create 16 in
  let decision_status = Hashtbl.create 16 in
  List.iter
    (fun (d : Analyze.decision) ->
      let x = d.Analyze.nt in
      let status =
        match d.Analyze.error with
        | Some e ->
          dead "C002"
            (Printf.sprintf "prediction cannot run: %s"
               (Costar_core.Types.error_to_string g e))
        | None ->
          if not (Analysis.reachable anl x) then
            dead "C002"
              (Printf.sprintf
                 "decision `%s` is unreachable from the start symbol (G001)"
                 (Names.nonterminal g x))
          else if not u_reach.(x) then
            dead "C002"
              (Printf.sprintf
                 "every occurrence of `%s` has an unproductive sibling \
                  symbol: no complete sentence reaches this decision"
                 (Names.nonterminal g x))
          else Coverable
      in
      Hashtbl.replace decision_status x status;
      Hashtbl.replace decision_ix x (push { target = Decision x; status; hits = 0 }))
    result.Analyze.decisions;
  (* Cached prediction-DFA edges. *)
  let n_states = Cache.num_states cache in
  let edge_ix = Hashtbl.create 256 in
  for sid = 0 to n_states - 1 do
    let info = Cache.info cache sid in
    let pending = info.Cache.verdict = Cache.V_pending in
    for a = 0 to Grammar.num_terminals g - 1 do
      if Cache.trans_get cache sid a >= 0 then begin
        let status =
          let x = owner.(sid) in
          if x < 0 then
            dead "C002"
              "state is unreachable from every decision's initial state"
          else
            (* Inherit deadness from the owning decision. *)
            match Hashtbl.find_opt decision_status x with
            | Some (Dead { reason; _ }) ->
              dead "C002"
                (Printf.sprintf "its decision `%s` is dead: %s"
                   (Names.nonterminal g x) reason)
            | Some Coverable | None ->
              if not pending then
                dead "C002"
                  "the source state is already decided: the runtime loop \
                   returns its verdict without scanning further"
              else if
                (* Initial-state edge of a lookahead-constrained decision:
                   terminal [a] can never be the next token when the
                   machine pushes [x], because every usable context
                   pinches through an enclosing committing prediction
                   scanning from the same position. *)
                Cache.init_get cache x = sid
                && (not free.(x))
                && (not (Bitset.mem (Analysis.first anl x) a))
                && not
                     (Analysis.nullable anl x
                     && Bitset.mem (Analysis.follow anl x) a)
              then
                dead "C002"
                  (Printf.sprintf
                     "lookahead `%s` cannot occur at entry to decision \
                      `%s`: it is outside FIRST and FOLLOW, and every \
                      context reaching the decision is pinned by an \
                      enclosing prediction"
                     (Names.terminal g a) (Names.nonterminal g x))
              else Coverable
        in
        Hashtbl.replace edge_ix (sid, a)
          (push { target = Edge (sid, a); status; hits = 0 })
      end
    done
  done;
  (* Lexer-DFA class transitions. *)
  let lex_ix = Hashtbl.create 256 in
  (match dfa with
  | None -> ()
  | Some d ->
    for s = 0 to Dfa.num_states d - 1 do
      for k = 0 to Dfa.num_classes d - 1 do
        let s' = Dfa.next_class d s k in
        if s' >= 0 then begin
          let status =
            match Dfa.accept_witness d s' with
            | Some _ -> Coverable
            | None ->
              dead "C003"
                "no accepting state is reachable from the successor: every \
                 scan taking this transition backtracks to an earlier match \
                 or fails"
          in
          Hashtbl.replace lex_ix (s, k)
            (push { target = Lex_trans (s, k); status; hits = 0 })
        end
      done
    done);
  {
    g;
    anl;
    parser_;
    result;
    scanner;
    dfa;
    n_states;
    u_reach;
    u_why;
    exit_yield;
    owner;
    entries = Array.of_list (List.rev !entries);
    decision_ix;
    edge_ix;
    lex_ix;
  }

(* --- Runtime marking ----------------------------------------------------- *)

let with_cov f =
  Instr.cov_reset ();
  Instr.cov_enabled := true;
  Fun.protect ~finally:(fun () -> Instr.cov_enabled := false) f

(* Fold the calling domain's coverage tallies into the universe.  Runtime
   keys outside the universe (DFA states interned after [make], productions
   of another grammar) are ignored: the universe is a fixed denominator. *)
let drain t =
  List.iter
    (fun (ix, n) ->
      if ix >= 0 && ix < Grammar.num_productions t.g then
        let e = t.entries.(ix) in
        e.hits <- e.hits + n)
    (Instr.cov_prod_hits ());
  List.iter
    (fun (x, n) ->
      match Hashtbl.find_opt t.decision_ix x with
      | Some i -> t.entries.(i).hits <- t.entries.(i).hits + n
      | None -> ())
    (Instr.cov_decision_hits ());
  List.iter
    (fun (key, n) ->
      match Hashtbl.find_opt t.edge_ix key with
      | Some i -> t.entries.(i).hits <- t.entries.(i).hits + n
      | None -> ())
    (Instr.cov_edge_hits ());
  Instr.cov_reset ()

(* Parse under coverage instrumentation, through the analyzer's own cache,
   so runtime edge ids coincide with universe edge ids.  The parse result
   is returned (coverage counts pushes and DFA walks even on rejection). *)
let mark_word t word =
  let r =
    with_cov (fun () ->
        P.run_word ~cache:t.result.Analyze.cache t.parser_ word)
  in
  drain t;
  r

let mark_tokens t toks = mark_word t (Word.of_tokens toks)

(* Byte-level lexer replay: re-run the DFA over the input with
   maximal-munch restarts (the hot scanner stays uninstrumented), crediting
   the class transitions along each *accepted* lexeme — transitions in
   overrun suffixes that a scan later backtracks out of do not count, which
   matches the C003 deadness definition.  Stops at the first lexical
   error; returns the number of accepted lexemes (skips included). *)
let mark_bytes t text =
  match t.dfa with
  | None -> 0
  | Some d ->
    let n = String.length text in
    let ctab = Dfa.class_table d in
    let credit s k =
      match Hashtbl.find_opt t.lex_ix (s, k) with
      | Some i -> t.entries.(i).hits <- t.entries.(i).hits + 1
      | None -> ()
    in
    let tokens = ref 0 in
    let pos = ref 0 in
    let ok = ref true in
    while !ok && !pos < n do
      let s = ref (Dfa.start d) in
      let i = ref !pos in
      let last_accept = ref (-1) in
      let path = ref [] in
      (* (source state, class, end offset) *)
      let alive = ref true in
      while !alive && !i < n do
        let k = ctab.(Char.code text.[!i]) in
        let s' = Dfa.next_class d !s k in
        if s' < 0 then alive := false
        else begin
          path := (!s, k, !i + 1) :: !path;
          s := s';
          incr i;
          if Dfa.accept_ix d !s >= 0 then last_accept := !i
        end
      done;
      if !last_accept <= !pos then ok := false
      else begin
        let stop = !last_accept in
        List.iter
          (fun (s, k, end_ofs) -> if end_ofs <= stop then credit s k)
          !path;
        incr tokens;
        pos := stop
      end
    done;
    !tokens

(* --- Reporting ----------------------------------------------------------- *)

type kind = K_prod | K_decision | K_edge | K_lex

let kind_of = function
  | Prod _ -> K_prod
  | Decision _ -> K_decision
  | Edge _ -> K_edge
  | Lex_trans _ -> K_lex

let kind_name = function
  | K_prod -> "productions"
  | K_decision -> "decisions"
  | K_edge -> "decision edges"
  | K_lex -> "lexer transitions"

type summary = {
  covered : int;
  coverable : int;
  dead : int;
}

let summary t =
  let kinds =
    [ K_prod; K_decision; K_edge ] @ if t.dfa = None then [] else [ K_lex ]
  in
  List.map
    (fun k ->
      let sum =
        Array.fold_left
          (fun acc e ->
            if kind_of e.target <> k then acc
            else
              match e.status with
              | Dead _ -> { acc with dead = acc.dead + 1 }
              | Coverable ->
                {
                  acc with
                  coverable = acc.coverable + 1;
                  covered = (acc.covered + if e.hits > 0 then 1 else 0);
                })
          { covered = 0; coverable = 0; dead = 0 }
          t.entries
      in
      (k, sum))
    kinds

let residual t =
  Array.to_list t.entries
  |> List.filter (fun e -> e.status = Coverable && e.hits = 0)

let describe t = function
  | Prod ix -> Printf.sprintf "production %s" (Names.production t.g ix)
  | Decision x ->
    Printf.sprintf "decision `%s` (%d alternatives)" (Names.nonterminal t.g x)
      (List.length (Grammar.prods_of t.g x))
  | Edge (sid, a) ->
    let who =
      let x = if sid < Array.length t.owner then t.owner.(sid) else -1 in
      if x < 0 then "" else Printf.sprintf "decision `%s`: " (Names.nonterminal t.g x)
    in
    Printf.sprintf "%sDFA edge %d --'%s'--> %d" who sid (Names.terminal t.g a)
      (Cache.trans_get t.result.Analyze.cache sid a)
  | Lex_trans (s, k) -> (
    match t.dfa with
    | None -> Printf.sprintf "lexer transition %d/%d" s k
    | Some d ->
      Printf.sprintf "lexer DFA edge %d --class %d (%C)--> %d" s k
        (Dfa.class_rep d k) (Dfa.next_class d s k))

let severity_of_code code =
  match Lint.find_rule code with
  | Some r -> r.Lint.default_severity
  | None -> D.Info

(* C-code diagnostics for the statically dead targets.  Spans are dummy
   (targets live in compiled artifacts, not source text); the grammar file
   is attached when known so SARIF output still lands somewhere. *)
let dead_diags ?file t =
  Array.to_list t.entries
  |> List.filter_map (fun e ->
         match e.status with
         | Coverable -> None
         | Dead { code; reason } ->
           Some
             (D.make ~severity:(severity_of_code code) ?file
                ~notes:[ reason ] code
                (Printf.sprintf "dead coverage target: %s" (describe t e.target))))
