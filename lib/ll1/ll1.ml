open Costar_grammar
open Costar_grammar.Symbols

type conflict = {
  nt : nonterminal;
  on : terminal option;
  prods : int list;
}

let pp_conflict g ppf c =
  Fmt.pf ppf "LL(1) conflict at %s on %s between {%a}"
    (Grammar.nonterminal_name g c.nt)
    (match c.on with
    | Some a -> "'" ^ Grammar.terminal_name g a ^ "'"
    | None -> "<eof>")
    Fmt.(list ~sep:comma (fun ppf ix -> Grammar.pp_production g ppf (Grammar.prod g ix)))
    c.prods

type table = {
  g : Grammar.t;
  (* cells.(x * num_terminals + a) and eof.(x): candidate production lists,
     in grammar order. *)
  cells : int list array;
  eof : int list array;
}

let build_raw g =
  let cells, eof = Analysis.ll1_cells (Analysis.make g) in
  { g; cells; eof }

let conflicts g =
  let t = build_raw g in
  let terms = Grammar.num_terminals g in
  let acc = ref [] in
  Array.iteri
    (fun i prods ->
      match prods with
      | _ :: _ :: _ -> acc := { nt = i / terms; on = Some (i mod terms); prods } :: !acc
      | _ -> ())
    t.cells;
  Array.iteri
    (fun x prods ->
      match prods with
      | _ :: _ :: _ -> acc := { nt = x; on = None; prods } :: !acc
      | _ -> ())
    t.eof;
  List.rev !acc

let build g =
  match conflicts g with [] -> Ok (build_raw g) | cs -> Error cs

(* The driver mirrors the CoStar machine's merged frames, minus prediction:
   each frame records the open nonterminal, the event index where its
   children start, and the unprocessed symbols.  Finished subtrees go to
   a postorder event buffer, as in the machine. *)
type frame = {
  label : nonterminal option;
  first : int;
  suf : symbol list;
}

let parse t toks =
  let g = t.g in
  let terms = Grammar.num_terminals g in
  let w = Word.of_tokens toks in
  let n = w.Word.len in
  let events = Tree.Events.create ((2 * n) + 16) in
  let lookup x = function
    | Some a -> (
      match t.cells.((x * terms) + a) with [ ix ] -> Some ix | _ -> None)
    | None -> ( match t.eof.(x) with [ ix ] -> Some ix | _ -> None)
  in
  let rec go top frames pos ev =
    match top.suf with
    | T a :: suf ->
      if pos < n && Word.kind w pos = a then begin
        Tree.Events.leaf events ev pos;
        go { top with suf } frames (pos + 1) (ev + 1)
      end
      else if pos < n then
        let tok = Word.token w pos in
        Error
          (Printf.sprintf "expected '%s' but found '%s' at line %d"
             (Grammar.terminal_name g a)
             (Grammar.terminal_name g tok.Token.term)
             tok.Token.line)
      else
        Error
          (Printf.sprintf "expected '%s' but reached end of input"
             (Grammar.terminal_name g a))
    | NT x :: suf -> (
      let la = if pos < n then Some (Word.kind w pos) else None in
      match lookup x la with
      | Some ix ->
        go
          { label = Some x; first = ev; suf = (Grammar.prod g ix).rhs }
          ({ top with suf } :: frames)
          pos ev
      | None ->
        Error
          (Printf.sprintf "no table entry for %s on %s"
             (Grammar.nonterminal_name g x)
             (match la with
             | Some a -> "'" ^ Grammar.terminal_name g a ^ "'"
             | None -> "<eof>")))
    | [] -> (
      match frames, top.label with
      | caller :: frames', Some x ->
        Tree.Events.node events ev x ~first:top.first;
        go caller frames' pos (ev + 1)
      | [], None ->
        if pos < n then
          let tok = Word.token w pos in
          Error
            (Printf.sprintf "input remains at line %d: '%s'" tok.Token.line
               tok.Token.lexeme)
        else if ev > 0 && Tree.Events.size events (ev - 1) = ev then
          Ok (Tree.Events.seal events w ev)
        else Error "malformed final state"
      | _ -> Error "malformed stack")
  in
  go { label = None; first = 0; suf = [ NT (Grammar.start g) ] } [] 0 0

let parse_with g w =
  match build g with
  | Ok t -> parse t w
  | Error cs ->
    Error
      (Fmt.str "grammar is not LL(1): %a"
         Fmt.(list ~sep:(any "; ") (pp_conflict g))
         cs)
