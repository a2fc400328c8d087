(* Witness-directed sentence generation: for each coverable-but-uncovered
   target, build a concrete sentence that exercises it.

   The backbone is Purdom-style shortest derivation: the useful-reachability
   parent chain ([Cover.u_why]) is replayed root-first into a (prefix,
   suffix) terminal context around any nonterminal, with every sibling
   filled by its shortest yield.  Per-target steering then plants the
   interesting material in the hole:

   - a production: its own shortest expansion;
   - a decision: any yield of its nonterminal (reaching it runs prediction);
   - a DFA edge (sid, a): the BFS lookahead prefix w from the decision's
     initial state to sid, then [a] — covering the edge only requires the
     machine to reach the decision with remaining input starting w·a; a
     completion from the target state's configurations is appended so the
     sentence usually also parses;
   - a lexer transition: shortest string to the source state, the class's
     representative byte, then the shortest completion to acceptance.

   Byte-level rendering inverts the lexer DFA to a shortest accepted lexeme
   per terminal and validates by re-tokenizing; when a terminal has no
   lexeme (post-pass tokens such as INDENT/DEDENT), the sentence stays
   token-level. *)

open Costar_grammar
open Costar_grammar.Symbols
module Cache = Costar_core.Cache
module Config = Costar_core.Config
module Frames = Costar_grammar.Frames
module Analyze = Costar_predict_analysis.Analyze
module D = Costar_lint.Diagnostic
module Dfa = Costar_lex.Dfa
module Scanner = Costar_lex.Scanner

(* --- Derivation contexts ------------------------------------------------- *)

let yield_of (t : Cover.t) syms =
  match Analysis.min_yield_seq t.Cover.anl syms with
  | Some w -> w
  | None -> []  (* unproductive sibling: cannot happen on u_reach chains *)

(* Terminal (prefix, suffix) context around nonterminal [x], following the
   useful-reachability parent chain root-first; every occurrence on the
   chain has productive siblings, so the context always completes into a
   sentence.  [None] when [x] is not usefully reachable. *)
let context (t : Cover.t) x =
  if x < 0 || x >= Array.length t.Cover.u_reach || not t.Cover.u_reach.(x) then
    None
  else begin
    let rec go x =
      match t.Cover.u_why.(x) with
      | -1, -1 -> ([], [])  (* the start symbol *)
      | ix, pos ->
        let p = Grammar.prod t.Cover.g ix in
        let pre, suf = go p.lhs in
        let before = List.filteri (fun j _ -> j < pos) p.rhs in
        let after = List.filteri (fun j _ -> j > pos) p.rhs in
        (pre @ yield_of t before, yield_of t after @ suf)
    in
    Some (go x)
  end

(* A fill of the [before] siblings that realizes exit-freedom: the last
   non-vanishing sibling expanded to its exit yield (which ends in a
   committed token) instead of its shortest yield — the shortest yield
   usually vanishes the very token that frees the position. *)
let free_fill (t : Cover.t) before =
  let arr = Array.of_list before in
  let rec back j =
    if j < 0 then None
    else
      match arr.(j) with
      | T _ -> None  (* the shortest fill already ends in a terminal *)
      | NT w -> (
        match t.Cover.exit_yield.(w) with
        | Some wy -> (
          match
            Analysis.min_yield_seq t.Cover.anl
              (Array.to_list (Array.sub arr 0 j))
          with
          | Some pre -> Some (pre @ wy)
          | None -> None)
        | None ->
          if Analysis.min_yield t.Cover.anl w = Some [] then back (j - 1)
          else None)
  in
  back (Array.length arr - 1)

(* Candidate contexts per nonterminal, capped.  Beyond the useful-
   reachability chain, the enumeration recurses over every occurrence
   under every context of its parent, with min-yield and exit-yield
   sibling fills: different occurrence chains place the hole under
   different enclosing decisions, and a sentence that rejects through one
   chain (an enclosing prediction scanning past the hole before
   committing) often drives the target cleanly through another. *)
let max_contexts = 32

let contexts_fn (t : Cover.t) =
  let g = t.Cover.g in
  let n = Grammar.num_nonterminals g in
  let occs = Array.make n [] in
  for y = 0 to n - 1 do
    if t.Cover.u_reach.(y) then
      List.iter
        (fun ix ->
          List.iteri
            (fun pos sym ->
              match sym with
              | NT x -> occs.(x) <- (y, ix, pos) :: occs.(x)
              | T _ -> ())
            (Grammar.prod g ix).rhs)
        (Grammar.prods_of g y)
  done;
  for x = 0 to n - 1 do
    occs.(x) <- List.rev occs.(x)
  done;
  let memo = Array.make n None in
  let visiting = Array.make n false in
  let rec go x =
    if x < 0 || x >= n || not t.Cover.u_reach.(x) then []
    else
      match memo.(x) with
      | Some cs -> cs
      | None when visiting.(x) -> []  (* break occurrence cycles *)
      | None ->
        visiting.(x) <- true;
        let acc = ref (match context t x with Some c -> [ c ] | None -> []) in
        let add c =
          if List.length !acc < max_contexts && not (List.mem c !acc) then
            acc := !acc @ [ c ]
        in
        List.iter
          (fun (y, ix, pos) ->
            let p = Grammar.prod g ix in
            let before = List.filteri (fun j _ -> j < pos) p.rhs in
            let after = List.filteri (fun j _ -> j > pos) p.rhs in
            match
              ( Analysis.min_yield_seq t.Cover.anl before,
                Analysis.min_yield_seq t.Cover.anl after )
            with
            | Some b, Some a ->
              let fills =
                match free_fill t before with
                | Some f when f <> b -> [ b; f ]
                | _ -> [ b ]
              in
              List.iter
                (fun (pre, suf) ->
                  List.iter (fun fill -> add (pre @ fill, a @ suf)) fills)
                (go y)
            | _ -> ())
          occs.(x);
        visiting.(x) <- false;
        memo.(x) <- Some !acc;
        !acc
  in
  go

let contexts (t : Cover.t) x = contexts_fn t x

let prod_witnesses_with ctxs (t : Cover.t) ix =
  let p = Grammar.prod t.Cover.g ix in
  match Analysis.min_yield_seq t.Cover.anl p.rhs with
  | None -> []
  | Some y -> List.map (fun (pre, suf) -> pre @ y @ suf) (ctxs p.lhs)

let prod_witnesses (t : Cover.t) ix = prod_witnesses_with (contexts_fn t) t ix

let prod_witness (t : Cover.t) ix =
  match prod_witnesses t ix with w :: _ -> Some w | [] -> None

let decision_witnesses_with ctxs (t : Cover.t) x =
  match Analysis.min_yield t.Cover.anl x with
  | None -> []
  | Some y -> List.map (fun (pre, suf) -> pre @ y @ suf) (ctxs x)

let decision_witnesses (t : Cover.t) x =
  decision_witnesses_with (contexts_fn t) t x

let decision_witness (t : Cover.t) x =
  match decision_witnesses t x with w :: _ -> Some w | [] -> None

(* --- DFA-edge steering --------------------------------------------------- *)

(* Shortest lookahead words driving the cached DFA from decision [x]'s
   initial state, through pending states only (the runtime loop stops
   scanning at a decided state, so paths through them are not walkable).
   One BFS serves every state of the decision; [prefix_fn] memoizes it per
   decision, which matters when reporting thousands of residual edges. *)
let prefix_arrays (t : Cover.t) x =
  let cache = t.Cover.result.Analyze.cache in
  let n = t.Cover.n_states in
  let dist = Array.make n (-1) in
  let back = Array.make n (-1, -1) in
  (match Cache.find_init cache x with
  | None -> ()
  | Some s0 ->
    let q = Queue.create () in
    let pending s = (Cache.info cache s).Cache.verdict = Cache.V_pending in
    if s0 < n then begin
      dist.(s0) <- 0;
      Queue.add s0 q
    end;
    while not (Queue.is_empty q) do
      let s = Queue.pop q in
      if pending s then
        for a = 0 to Grammar.num_terminals t.Cover.g - 1 do
          let s' = Cache.trans_get cache s a in
          if s' >= 0 && s' < n && dist.(s') < 0 then begin
            dist.(s') <- dist.(s) + 1;
            back.(s') <- (s, a);
            Queue.add s' q
          end
        done
    done);
  (dist, back)

let prefix_of_arrays (dist, back) sid =
  if sid < 0 || sid >= Array.length dist || dist.(sid) < 0 then None
  else begin
    let rec build s acc =
      if dist.(s) = 0 then acc
      else
        let p, a = back.(s) in
        build p (a :: acc)
    in
    Some (build sid [])
  end

let prefix_fn (t : Cover.t) =
  let memo = Hashtbl.create 8 in
  fun x sid ->
    let arrays =
      match Hashtbl.find_opt memo x with
      | Some arrays -> arrays
      | None ->
        let arrays = prefix_arrays t x in
        Hashtbl.add memo x arrays;
        arrays
    in
    prefix_of_arrays arrays sid

let edge_prefix (t : Cover.t) x sid = prefix_of_arrays (prefix_arrays t x) sid

(* A terminal completion for the subparser that just scanned w·a into the
   target state: the shortest yield of one surviving configuration's frame
   stack, preferring configurations still inside the decision's expansion
   ([Ctx_nt]) over stable-return forks.  Empty on failure — the edge is
   covered by the scan itself; only the surrounding parse gets sloppier. *)
let edge_completion (t : Cover.t) sid a =
  let cache = t.Cover.result.Analyze.cache in
  let fr = Analysis.frames t.Cover.anl in
  let sid' = Cache.trans_get cache sid a in
  if sid' < 0 then []
  else begin
    let configs = (Cache.info cache sid').Cache.configs in
    let inside, forks =
      List.partition
        (fun (c : Config.sll) ->
          match c.Config.s_ctx with
          | Config.Ctx_nt _ -> true
          | Config.Ctx_accept -> false)
        configs
    in
    let rec first = function
      | [] -> []
      | (c : Config.sll) :: rest -> (
        let syms = List.concat (Frames.frames_of_spine fr c.Config.s_frames) in
        match Analysis.min_yield_seq t.Cover.anl syms with
        | Some w -> w
        | None -> first rest)
    in
    first (inside @ forks)
  end

let edge_witnesses_with ctxs prefix (t : Cover.t) (sid, a) =
  let x = if sid < Array.length t.Cover.owner then t.Cover.owner.(sid) else -1 in
  if x < 0 then []
  else
    match prefix x sid with
    | None -> []
    | Some w ->
      let tail = a :: edge_completion t sid a in
      List.map (fun (pre, suf) -> pre @ w @ tail @ suf) (ctxs x)

let edge_witness (t : Cover.t) e =
  match edge_witnesses_with (contexts_fn t) (prefix_fn t) t e with
  | w :: _ -> Some w
  | [] -> None

(* --- Lexer-transition steering ------------------------------------------- *)

(* A byte string whose scan drives the lexer DFA across (s, class k): the
   shortest path to [s], the class's representative byte, then the shortest
   completion to an accepting state — so the whole string is one maximal
   lexeme and the replay credits every transition along it. *)
let lex_witness (t : Cover.t) (s, k) =
  match t.Cover.dfa with
  | None -> None
  | Some d -> (
    let s' = Dfa.next_class d s k in
    if s' < 0 then None
    else
      match Dfa.witness d s, Dfa.accept_witness d s' with
      | Some head, Some tail ->
        Some (head ^ String.make 1 (Dfa.class_rep d k) ^ tail)
      | _ -> None)

(* --- Byte rendering ------------------------------------------------------ *)

(* terminal -> shortest byte lexeme, by inverting the lexer DFA per Emit
   rule (first-rule-wins already folded into [rule_witness]); terminals the
   scanner never emits (post-pass tokens like INDENT/DEDENT) are absent. *)
let lexeme_table (t : Cover.t) =
  match t.Cover.scanner with
  | None -> (Hashtbl.create 1, " ")
  | Some sc ->
    let d = Scanner.dfa sc in
    let tbl = Hashtbl.create 32 in
    let sep = ref None in
    List.iteri
      (fun ix (r : Scanner.rule) ->
        match r.Scanner.action with
        | Scanner.Emit ->
          if not (Hashtbl.mem tbl r.Scanner.name) then (
            match Dfa.rule_witness d ix with
            | Some w -> Hashtbl.add tbl r.Scanner.name w
            | None -> ())
        | Scanner.Skip ->
          if !sep = None then sep := Dfa.rule_witness d ix)
      (Scanner.rules sc);
    (tbl, Option.value !sep ~default:" ")

(* Render a terminal sentence to bytes and check the scanner reads it back
   kind-for-kind; [None] (stay token-level) when a terminal has no lexeme
   or the rendering re-tokenizes differently (e.g. two adjacent lexemes
   fusing into one). *)
let render_bytes (t : Cover.t) ~scan ~lexemes ~sep terms =
  match scan with
  | None -> None
  | Some c -> (
    let rec collect acc = function
      | [] -> Some (List.rev acc)
      | a :: rest -> (
        match Hashtbl.find_opt lexemes (Names.terminal t.Cover.g a) with
        | Some w -> collect (w :: acc) rest
        | None -> None)
    in
    match collect [] terms with
    | None -> None
    | Some ws -> (
      let text = String.concat sep ws in
      match Scanner.scan_buf c text with
      | Ok buf
        when Token_buf.length buf = List.length terms
             && List.filteri (fun i a -> Token_buf.kind buf i <> a) terms = [] ->
        Some text
      | _ -> None))

(* --- Closing the universe ------------------------------------------------ *)

type generated = {
  label : string;  (** the target the sentence was generated for *)
  tokens : terminal list option;  (** token-level sentence, if any *)
  bytes : string option;  (** byte-level rendering / raw lexer input *)
}

(* Generate a sentence per uncovered coverable target and run it through
   the instrumented pipeline, re-checking coverage before each generation
   (one sentence usually covers many targets).  Token sentences mark the
   parser universe; their byte renderings — and the raw lexer-edge
   witnesses — mark the lexer universe. *)
let close (t : Cover.t) =
  let lexemes, sep = lexeme_table t in
  let scan = Option.map (fun sc -> Scanner.compile sc t.Cover.g) t.Cover.scanner in
  let prefix = prefix_fn t in
  let ctxs = contexts_fn t in
  let out = ref [] in
  let try_tokens label terms =
    let bytes = render_bytes t ~scan ~lexemes ~sep terms in
    ignore
      (Cover.mark_tokens t (Analyze.tokens_of_terms t.Cover.g terms));
    Option.iter (fun b -> ignore (Cover.mark_bytes t b)) bytes;
    out := { label; tokens = Some terms; bytes } :: !out
  in
  let uncovered e = e.Cover.status = Cover.Coverable && e.Cover.hits = 0 in
  (* Run candidate sentences for [e] until one of them covers it. *)
  let attempt e label candidates =
    List.iter
      (fun terms -> if uncovered e then try_tokens label terms)
      candidates
  in
  Array.iter
    (fun (e : Cover.entry) ->
      if uncovered e then
        match e.Cover.target with
        | Cover.Prod ix ->
          attempt e
            (Cover.describe t e.Cover.target)
            (prod_witnesses_with ctxs t ix)
        | _ -> ())
    t.Cover.entries;
  Array.iter
    (fun (e : Cover.entry) ->
      if uncovered e then
        match e.Cover.target with
        | Cover.Decision x ->
          attempt e
            (Cover.describe t e.Cover.target)
            (decision_witnesses_with ctxs t x)
        | _ -> ())
    t.Cover.entries;
  Array.iter
    (fun (e : Cover.entry) ->
      if uncovered e then
        match e.Cover.target with
        | Cover.Edge (sid, a) ->
          attempt e
            (Cover.describe t e.Cover.target)
            (edge_witnesses_with ctxs prefix t (sid, a))
        | _ -> ())
    t.Cover.entries;
  Array.iter
    (fun (e : Cover.entry) ->
      if uncovered e then
        match e.Cover.target with
        | Cover.Lex_trans (s, k) ->
          Option.iter
            (fun b ->
              ignore (Cover.mark_bytes t b);
              out :=
                { label = Cover.describe t e.Cover.target;
                  tokens = None;
                  bytes = Some b }
                :: !out)
            (lex_witness t (s, k))
        | _ -> ())
    t.Cover.entries;
  List.rev !out

(* --- Residue diagnostics ------------------------------------------------- *)

(* C-code diagnostics for coverable targets the generator failed to reach,
   each with the best witness-chain explanation we can compute. *)
let residual_diags ?file (t : Cover.t) =
  let prefix = prefix_fn t in
  let conflict_notes x =
    match Analyze.decision_for t.Cover.result x with
    | None -> []
    | Some d ->
      List.concat_map
        (fun (c : Analyze.conflict) ->
          let i, j = c.Analyze.alts in
          let w = Analyze.witness_string t.Cover.g c.Analyze.witness in
          [ Printf.sprintf
              "alternatives %d and %d stay conflicted on lookahead %s%s" i j w
              (match c.Analyze.ambiguous_word with
              | Some _ -> " (Earley-confirmed ambiguity)"
              | None -> "") ]
          )
        d.Analyze.conflicts
  in
  Cover.residual t
  |> List.map (fun (e : Cover.entry) ->
         let code, notes =
           match e.Cover.target with
           | Cover.Prod ix ->
             let x = (Grammar.prod t.Cover.g ix).lhs in
             ( "C004",
               "generation could not commit prediction to this alternative"
               :: conflict_notes x )
           | Cover.Decision x ->
             ("C004", "no generated sentence ran this decision" :: conflict_notes x)
           | Cover.Edge (sid, a) ->
             let x =
               if sid < Array.length t.Cover.owner then t.Cover.owner.(sid)
               else -1
             in
             let chain =
               match if x < 0 then None else prefix x sid with
               | Some w ->
                 [ Printf.sprintf "lookahead prefix to the source state: %s"
                     (Analyze.witness_string t.Cover.g (w @ [ a ])) ]
               | None ->
                 [ "no pending-state lookahead path reaches the source \
                    state: the edge is viable only under the stable-return \
                    approximation" ]
             in
             ("C002", chain)
           | Cover.Lex_trans (s, k) ->
             ( "C003",
               match lex_witness t (s, k) with
               | Some w -> [ Printf.sprintf "candidate lexeme %S was not accepted by the replay" w ]
               | None -> [ "no single accepted lexeme traverses this transition" ] )
         in
         let sev =
           match Costar_lint.Lint.find_rule code with
           | Some r -> r.Costar_lint.Lint.default_severity
           | None -> D.Info
         in
         D.make ~severity:sev ?file ~notes code
           (Printf.sprintf "uncovered target: %s" (Cover.describe t e.Cover.target)))
