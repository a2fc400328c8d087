(* The paper's Fig. 2, replayed: a step-by-step trace of the stack machine
   on the grammar  S -> A c | A d ;  A -> a A | b  and the input "abd".

   Each line shows the suffix stack (top frame first, open nonterminals as
   labels), the partial trees of the top prefix frame, the remaining input,
   and the visited set used for dynamic left-recursion detection.

   Run with:  dune exec examples/trace_demo.exe *)

open Costar_grammar

let () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  let p = Costar_core.Parser.make g in
  print_endline "Grammar (Fig. 2):";
  Fmt.pr "  %a@.@." Grammar.pp g;
  print_endline "Trace on input \"a b d\":";
  let word names = Word.of_tokens (Grammar.tokens g names) in
  ignore (Costar_core.Trace.print p (word [ "a"; "b"; "d" ]));
  print_newline ();
  print_endline "Trace on the rejected input \"a b\":";
  ignore (Costar_core.Trace.print p (word [ "a"; "b" ]))
