open Costar_grammar
open Costar_grammar.Symbols

let pp_frame env ppf (label, unprocessed) =
  let g = env.Machine.g in
  (match label with
  | Some x -> Fmt.pf ppf "%s:" (Grammar.nonterminal_name g x)
  | None -> ());
  Grammar.pp_symbols g ppf unprocessed

let pp_state env ctx ppf (st : Machine.state) =
  let g = env.Machine.g in
  (* Suffix stack, top frame first. *)
  Fmt.pf ppf "@[<h>[%a]"
    Fmt.(list ~sep:(any " | ") (pp_frame env))
    (List.combine (Machine.labels st) (Machine.conts st));
  (* Partial trees in the top prefix frame.  Each starts mid-line, so
     [Tree.pp] lays it out as at a line start and prints it as one
     block. *)
  (match Machine.trees ctx st with
  | [] :: _ | [] -> ()
  | trees :: _ ->
    Fmt.pf ppf "  trees: %a" Fmt.(list ~sep:sp (Tree.pp g)) trees);
  (* Remaining input and visited set. *)
  Fmt.pf ppf "  input: %s"
    (match Machine.remaining_tokens ctx st with
    | [] -> "<eof>"
    | toks ->
      String.concat " "
        (List.map (fun t -> Grammar.terminal_name g t.Token.term) toks));
  Fmt.pf ppf "  visited: {%s}@]"
    (String.concat ","
       (List.map (Grammar.nonterminal_name g) (Int_set.elements (Machine.visited st))))

let run ?cache p word =
  let env = Parser.env p in
  let lines = ref [] in
  let result =
    Parser.run_word ?cache p word
      ~inspect:(fun ctx st ->
        lines := Fmt.str "%a" (pp_state env ctx) st :: !lines)
  in
  (List.rev !lines, result)

let print ?cache p word =
  let lines, result = run ?cache p word in
  List.iteri (fun i line -> Printf.printf "(s%d) %s\n" i line) lines;
  Printf.printf "=> %s\n"
    (Fmt.str "%a" (Parser.pp_result (Parser.grammar p)) result);
  result
