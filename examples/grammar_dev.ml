(* The grammar-development workflow the paper motivates (§3.5): CoStar's
   ambiguity tolerance "assists users with the process of testing
   unfinished grammars, detecting ambiguities, and removing them", and its
   left-recursion handling turns an infinite loop into a diagnosis.

   This example walks a classic buggy expression grammar through the
   toolkit: static left-recursion detection, mechanical left-recursion
   elimination, LL(1) conflict inspection, ambiguity detection on sampled
   sentences, and the fixed grammar.

   Run with:  dune exec examples/grammar_dev.exe *)

open Costar_grammar

let section title = Printf.printf "\n=== %s ===\n" title

let () =
  section "1. A naive expression grammar (left-recursive AND ambiguous)";
  let naive =
    match
      Costar_ebnf.Parse.grammar_of_string
        {|
          expr : expr '+' expr | expr '*' expr | NUM ;
        |}
    with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  Fmt.pr "%a@." Grammar.pp naive;
  (match Left_recursion.check naive with
  | Ok () -> print_endline "no left recursion"
  | Error xs ->
    Printf.printf "left-recursive nonterminals: %s\n"
      (String.concat ", " (List.map (Grammar.nonterminal_name naive) xs)));
  (* The parser diagnoses it dynamically too, instead of diverging: *)
  (match Costar_core.Parser.parse naive (Grammar.tokens naive [ "NUM" ]) with
  | Costar_core.Parser.Error e ->
    Printf.printf "parse attempt: error (%s)\n"
      (Costar_core.Types.error_to_string naive e)
  | r -> Fmt.pr "parse attempt: %a@." (Costar_core.Parser.pp_result naive) r);

  section "2. Mechanical left-recursion elimination";
  let no_lr = Transform.eliminate_left_recursion naive in
  Fmt.pr "%a@." Grammar.pp no_lr;
  (match Left_recursion.check no_lr with
  | Ok () -> print_endline "left recursion eliminated"
  | Error _ -> print_endline "still left-recursive?!");

  section "3. ...but the grammar is still ambiguous";
  let w = Grammar.tokens no_lr [ "NUM"; "+"; "NUM"; "*"; "NUM" ] in
  (match Costar_core.Parser.parse no_lr w with
  | Costar_core.Parser.Ambig v ->
    (* Mid-line (after two spaces): Tree.pp lays the tree out as at a
       line start and prints it as one block. *)
    Fmt.pr "NUM + NUM * NUM is ambiguous; CoStar committed to:@.  %a@."
      (Tree.pp no_lr) v
  | r -> Fmt.pr "%a@." (Costar_core.Parser.pp_result no_lr) r);
  Printf.printf "oracle derivation count: %d\n"
    (Costar_earley.Count.count_trees ~cap:5 no_lr w);

  section "4. The conventional fix: stratified precedence";
  let fixed =
    match
      Costar_ebnf.Parse.grammar_of_string
        {|
          expr   : term ('+' term)* ;
          term   : factor ('*' factor)* ;
          factor : NUM ;
        |}
    with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  Fmt.pr "%a@." Grammar.pp fixed;
  (match Costar_ll1.Ll1.conflicts fixed with
  | [] -> print_endline "grammar is LL(1): no conflicts"
  | cs -> Printf.printf "%d LL(1) conflicts remain\n" (List.length cs));
  let w = Grammar.tokens fixed [ "NUM"; "+"; "NUM"; "*"; "NUM" ] in
  (match Costar_core.Parser.parse fixed w with
  | Costar_core.Parser.Unique v ->
    Fmt.pr "NUM + NUM * NUM now parses uniquely:@.  %a@." (Tree.pp fixed) v
  | r -> Fmt.pr "%a@." (Costar_core.Parser.pp_result fixed) r);

  section "5. Fuzzing the fixed grammar with sampled sentences";
  let rand = Random.State.make [| 7 |] in
  let ambiguous = ref 0 and total = ref 0 in
  for _ = 1 to 200 do
    match Sample.tokens fixed rand with
    | None -> ()
    | Some w -> (
      incr total;
      match Costar_core.Parser.parse fixed w with
      | Costar_core.Parser.Unique _ -> ()
      | Costar_core.Parser.Ambig _ -> incr ambiguous
      | _ -> ())
  done;
  Printf.printf "%d sampled sentences parsed, %d ambiguous\n" !total !ambiguous
