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

(* Each production enters a cell at most once: a nullable right-hand side
   whose FIRST and FOLLOW(lhs) share a terminal is one candidate there, not
   a conflict with itself. *)
let raw_cells anl =
  let g = Analysis.grammar anl in
  let nts = Grammar.num_nonterminals g and terms = Grammar.num_terminals g in
  let cells = Array.make (nts * terms) [] in
  let eof = Array.make nts [] in
  let add_cell x a ix = cells.((x * terms) + a) <- cells.((x * terms) + a) @ [ ix ] in
  Array.iter
    (fun p ->
      let x = p.Grammar.lhs in
      let la = Analysis.first_seq anl p.rhs in
      if Analysis.nullable_seq anl p.rhs then begin
        ignore (Bitset.union_into ~into:la (Analysis.follow anl x));
        if Analysis.follow_end anl x then eof.(x) <- eof.(x) @ [ p.ix ]
      end;
      Bitset.iter (fun a -> add_cell x a p.ix) la)
    (Grammar.prods g);
  (cells, eof)

let build_raw g =
  let cells, eof = raw_cells (Analysis.make g) in
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
   each frame records the open nonterminal, the reversed subtrees built so
   far, and the unprocessed symbols. *)
type frame = {
  label : nonterminal option;
  trees_rev : Tree.t list;
  suf : symbol list;
}

let parse t w =
  let g = t.g in
  let terms = Grammar.num_terminals g in
  let lookup x = function
    | Some a -> (
      match t.cells.((x * terms) + a) with [ ix ] -> Some ix | _ -> None)
    | None -> ( match t.eof.(x) with [ ix ] -> Some ix | _ -> None)
  in
  let rec go top frames tokens =
    match top.suf with
    | T a :: suf -> (
      match tokens with
      | tok :: rest when tok.Token.term = a ->
        go { top with trees_rev = Tree.Leaf tok :: top.trees_rev; suf } frames rest
      | tok :: _ ->
        Error
          (Printf.sprintf "expected '%s' but found '%s' at line %d"
             (Grammar.terminal_name g a)
             (Grammar.terminal_name g tok.Token.term)
             tok.Token.line)
      | [] ->
        Error
          (Printf.sprintf "expected '%s' but reached end of input"
             (Grammar.terminal_name g a)))
    | NT x :: suf -> (
      let la = match tokens with tok :: _ -> Some tok.Token.term | [] -> None in
      match lookup x la with
      | Some ix ->
        go
          { label = Some x; trees_rev = []; suf = (Grammar.prod g ix).rhs }
          ({ top with suf } :: frames)
          tokens
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
        let node = Tree.Node (x, List.rev top.trees_rev) in
        go { caller with trees_rev = node :: caller.trees_rev } frames' tokens
      | [], None -> (
        match tokens, top.trees_rev with
        | [], [ v ] -> Ok v
        | tok :: _, _ ->
          Error
            (Printf.sprintf "input remains at line %d: '%s'" tok.Token.line
               tok.Token.lexeme)
        | [], _ -> Error "malformed final state")
      | _ -> Error "malformed stack")
  in
  go
    { label = None; trees_rev = []; suf = [ NT (Grammar.start g) ] }
    [] w

let parse_with g w =
  match build g with
  | Ok t -> parse t w
  | Error cs ->
    Error
      (Fmt.str "grammar is not LL(1): %a"
         Fmt.(list ~sep:(any "; ") (pp_conflict g))
         cs)
