(* The paper's Fig. 6: ambiguity detection on  S -> X | Y ; X -> a ; Y -> a.

   The word "a" has two parse trees; adaptivePredict's LL mode notices that
   two right-hand sides survive to end of input, the machine clears its
   uniqueness flag, and the final tree is labelled Ambig.  The Earley-based
   oracle cross-checks the derivation count, and the enumerator prints both
   trees.

   Run with:  dune exec examples/ambiguity.exe *)

open Costar_grammar

let () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  let w = Grammar.tokens g [ "a" ] in
  Fmt.pr "Grammar (Fig. 6):@.  %a@.@." Grammar.pp g;
  (match Costar_core.Parser.parse g w with
  | Costar_core.Parser.Ambig v ->
    (* Trees here start mid-line: Tree.pp lays each out as at a line
       start and prints it as one block. *)
    Fmt.pr "CoStar: input \"a\" is AMBIGUOUS; returned tree: %a@."
      (Tree.pp g) v
  | r -> Fmt.pr "unexpected: %a@." (Costar_core.Parser.pp_result g) r);
  let count = Costar_earley.Count.count_trees ~cap:10 g w in
  Fmt.pr "Oracle: %d distinct derivations@." count;
  List.iteri
    (fun i v -> Fmt.pr "  tree %d: %a@." (i + 1) (Tree.pp g) v)
    (Costar_earley.Count.enumerate ~limit:10 g w);
  (* An unambiguous word through the same grammar stays Unique. *)
  let g2 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "b" ] ]);
      ]
  in
  match Costar_core.Parser.parse g2 (Grammar.tokens g2 [ "b" ]) with
  | Costar_core.Parser.Unique v ->
    Fmt.pr "@.Disambiguated grammar: \"b\" parses uniquely as %a@."
      (Tree.pp g2) v
  | r -> Fmt.pr "unexpected: %a@." (Costar_core.Parser.pp_result g2) r
