open Costar_grammar

type 'a actions = {
  on_token : Token.t -> 'a;
  on_production : Grammar.production -> 'a list -> 'a;
}

let eval g actions tree =
  let exception Malformed of string in
  let rec go v =
    match Tree.view v with
    | Tree.Leaf tok -> actions.on_token tok
    | Tree.Node (x, kids) -> (
      let roots = List.map Tree.root kids in
      match Grammar.find_production g x roots with
      | Some p -> actions.on_production p (List.map go kids)
      | None ->
        raise
          (Malformed
             (Printf.sprintf "no production %s -> ... matches the node's children"
                (Grammar.nonterminal_name g x))))
    | Tree.Error _ ->
      raise (Malformed "cannot evaluate a partial tree with error nodes")
  in
  match go tree with
  | v -> Ok v
  | exception Malformed msg -> Error msg

type 'a result =
  | Value of 'a
  | Ambiguous_value of 'a
  | Rejected of string
  | Failed of Types.error

let run p actions tokens =
  let g = Parser.grammar p in
  let evaluate v k =
    match eval g actions v with
    | Ok value -> k value
    | Error msg -> Failed (Types.Invalid_state msg)
  in
  match Parser.run_word p (Word.of_tokens tokens) with
  | Parser.Unique v -> evaluate v (fun value -> Value value)
  | Parser.Ambig v -> evaluate v (fun value -> Ambiguous_value value)
  | Parser.Reject msg -> Rejected msg
  | Parser.Error e -> Failed e
