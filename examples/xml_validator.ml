(* An XML well-formedness checker: syntactic validation with the benchmark
   grammar (which an LL(1) parser cannot express — the element rule needs
   unbounded lookahead), followed by a semantic pass that checks tag
   matching, which is not context-free at all.

   Run with:  dune exec examples/xml_validator.exe *)

open Costar_grammar
open Costar_langs

(* Collect (open, close) tag-name pairs from element nodes. *)
let rec check_tags g tree errors =
  match Tree.view tree with
  | Tree.Leaf _ -> errors
  | Tree.Node (x, kids) ->
    let errors =
      if Grammar.nonterminal_name g x = "element" then
        match List.filter_map (name_token g) kids with
        | [ opened; closed ] when opened.Token.lexeme <> closed.Token.lexeme ->
          Printf.sprintf "line %d: <%s> closed by </%s> (line %d)"
            opened.Token.line opened.Token.lexeme closed.Token.lexeme
            closed.Token.line
          :: errors
        | _ -> errors
      else errors
    in
    List.fold_left (fun errs kid -> check_tags g kid errs) errors kids
  | Tree.Error (_, kids) ->
    List.fold_left (fun errs kid -> check_tags g kid errs) errors kids

and name_token g v =
  match Tree.view v with
  | Tree.Leaf tok when Grammar.terminal_name g tok.Token.term = "NAME" ->
    Some tok
  | _ -> None

let validate doc =
  let lang = Xml.lang in
  let g = Lang.grammar lang in
  Printf.printf "--- validating:\n%s\n" doc;
  match Lang.tokenize lang doc with
  | Error msg -> Printf.printf "  not lexable: %s\n\n" msg
  | Ok tokens -> (
    match Costar_core.Parser.parse g tokens with
    | Costar_core.Parser.Unique tree -> (
      match List.rev (check_tags g tree []) with
      | [] -> Printf.printf "  well-formed (%d tokens)\n\n" (List.length tokens)
      | errors ->
        Printf.printf "  parses, but tags mismatch:\n";
        List.iter (fun e -> Printf.printf "    %s\n" e) errors;
        print_newline ())
    | Costar_core.Parser.Ambig _ -> Printf.printf "  ambiguous?!\n\n"
    | Costar_core.Parser.Reject msg -> Printf.printf "  malformed: %s\n\n" msg
    | Costar_core.Parser.Error e ->
      Printf.printf "  error: %s\n\n" (Costar_core.Types.error_to_string g e))

let () =
  validate "<note a=\"1\"><to>alice</to><from>bob</from><body/></note>";
  validate "<note><to>alice</wrong>\n</note>";
  validate "<note><unclosed></note>";
  validate "<a x=1></a>"
