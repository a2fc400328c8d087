open Costar_grammar
open Costar_grammar.Symbols
module Core = Costar_core

(* Turbo is the "unverified baseline": an imperative frame stack and a
   static LL(1) dispatch table in front of the core prediction engine.
   Decisions the table cannot settle go to [Core.Predict] over a DFA
   cache this instance owns, so the cache persists across inputs. *)
type t = {
  g : Grammar.t;
  anl : Analysis.t;
  n_terms : int;
  single : int array;  (* nt -> its only production, or -1 *)
  dispatch : int array;  (* nt * n_terms + term -> prod | -1 conflict | -2 none *)
  dispatch_eof : int array;
  mutable cache : Core.Cache.t;
}

let grammar t = t.g

let create g =
  let anl = Analysis.make g in
  let dispatch, dispatch_eof =
    let cell = function [] -> -2 | [ ix ] -> ix | _ -> -1 in
    let cells, eof = Analysis.ll1_cells anl in
    (Array.map cell cells, Array.map cell eof)
  in
  let single =
    Array.init (Grammar.num_nonterminals g) (fun x ->
        match Grammar.prods_of g x with [ ix ] -> ix | _ -> -1)
  in
  {
    g;
    anl;
    n_terms = Grammar.num_terminals g;
    single;
    dispatch;
    dispatch_eof;
    cache = Core.Cache.create anl;
  }

let reset_cache t = t.cache <- Core.Cache.create t.anl
let cache_states t = Core.Cache.num_states t.cache

type frame = {
  label : nonterminal;  (* -1 for the bottom frame *)
  first : int;  (* event index where the frame's children start *)
  suf : symbol list;
}

(* The suffix stack below a decision, for the LL fallback; it is built
   only when the dispatch table cannot settle the decision. *)
let conts_below suf frames = suf :: List.map (fun f -> f.suf) frames

let predict t (w : Word.t) pos x suf frames =
  let fast = t.single.(x) in
  if fast >= 0 then Core.Types.Unique_pred fast
  else
    let d =
      if pos < w.len then t.dispatch.((x * t.n_terms) + Word.kind w pos)
      else t.dispatch_eof.(x)
    in
    if d >= 0 then Core.Types.Unique_pred d
    else if d = -2 then Core.Types.Reject_pred
    else
      fst
        (Core.Predict.adaptive_predict t.g t.anl t.cache x ~conts:conts_below
           suf frames w pos)

let parse t token_list =
  let w = Word.of_tokens token_list in
  let n = w.len in
  let g = t.g in
  let events = Tree.Events.create ((2 * n) + 16) in
  let reject_at pos msg =
    Core.Parser.Reject
      (if pos < n then
         let tok = Word.token w pos in
         Printf.sprintf "%s at line %d, column %d" msg tok.Token.line
           tok.Token.col
       else msg ^ " at end of input")
  in
  let rec go top frames pos ev visited unique =
    match top.suf with
    | T a :: suf ->
      if pos < n && Word.kind w pos = a then begin
        Tree.Events.leaf events ev pos;
        go { top with suf } frames (pos + 1) (ev + 1) Int_set.empty unique
      end
      else
        reject_at pos
          (Printf.sprintf "expected '%s'" (Grammar.terminal_name g a))
    | NT x :: suf ->
      if Int_set.mem x visited then
        Core.Parser.Error (Core.Types.Left_recursive x)
      else begin
        match predict t w pos x suf frames with
        | Core.Types.Unique_pred ix ->
          go
            { label = x; first = ev; suf = (Grammar.prod g ix).Grammar.rhs }
            ({ top with suf } :: frames)
            pos ev (Int_set.add x visited) unique
        | Core.Types.Ambig_pred ix ->
          go
            { label = x; first = ev; suf = (Grammar.prod g ix).Grammar.rhs }
            ({ top with suf } :: frames)
            pos ev (Int_set.add x visited) false
        | Core.Types.Reject_pred ->
          reject_at pos
            (Printf.sprintf "no viable alternative for %s"
               (Grammar.nonterminal_name g x))
        | Core.Types.Error_pred e -> Core.Parser.Error e
      end
    | [] -> (
      match frames with
      | caller :: frames' ->
        Tree.Events.node events ev top.label ~first:top.first;
        go caller frames' pos (ev + 1)
          (Int_set.remove top.label visited)
          unique
      | [] ->
        if pos < n then reject_at pos "parse finished with input remaining"
        else if ev > 0 && Tree.Events.size events (ev - 1) = ev then
          let v = Tree.Events.seal events w ev in
          if unique then Core.Parser.Unique v else Core.Parser.Ambig v
        else
          Core.Parser.Error
            (Core.Types.Invalid_state "malformed final configuration"))
  in
  go
    { label = -1; first = 0; suf = [ NT (Grammar.start g) ] }
    [] 0 0 Int_set.empty true
