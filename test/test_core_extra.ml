(* Additional core-parser coverage: scale, error reporting, API surface,
   robustness, and behaviours at the specification's edges. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let list_grammar =
  (* list -> eps | 'x' list : right recursion builds an O(n)-deep stack. *)
  Grammar.define ~start:"L" [ ("L", [ []; [ Grammar.t "x"; Grammar.n "L" ] ]) ]

let test_deep_input () =
  let n = 30_000 in
  let w = List.init n (fun _ -> Grammar.token list_grammar "x" "x") in
  match Parser.parse list_grammar w with
  | Parser.Unique v ->
    check_int "width" n (Tree.width v);
    check_int "depth" (n + 1) (Tree.depth v);
    check_int "yield length" n (List.length (Tree.yield v))
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result list_grammar) r

(* Tree walks run on explicit stacks: json nested 200 000 deep is walked
   by every traversal without Stack_overflow, and rendering it costs
   about as many minor words per node as rendering a flat array of the
   same length, and at most a quarter of a minor word per byte written
   (the strings handed to the formatter, about an eighth, and little
   else). *)
let test_deep_tree_walks () =
  let n = 200_000 in
  let lang = Costar_langs.Json.lang in
  let p = Parser.make (Costar_langs.Lang.grammar lang) in
  let g = Parser.grammar p in
  let parse text =
    match Costar_langs.Lang.tokenize_buf lang text with
    | Error msg -> Alcotest.failf "json does not lex: %s" msg
    | Ok buf -> (
      match Parser.run_word p (Word.of_buf buf) with
      | Parser.Unique v -> v
      | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r)
  in
  let deep_text = String.make n '[' ^ String.make n ']' in
  let deep = parse deep_text in
  let flat = parse ("[" ^ String.concat "," (List.init n (fun _ -> "0")) ^ "]") in
  check_int "yield" (2 * n) (List.length (Tree.yield deep));
  check "depth grows with nesting" true (Tree.depth deep > n);
  check_int "compare to a reparse" 0 (Tree.compare deep (parse deep_text));
  check "deep <> flat" true (Tree.compare deep flat <> 0);
  check "dot" true (String.length (Tree.to_dot g deep) > n);
  let bytes = ref 0 in
  let pp_words_per_node v =
    (* Format lays the output out in full; only the bytes are dropped. *)
    let ppf = Format.make_formatter (fun _ _ n -> bytes := !bytes + n) ignore in
    bytes := 0;
    let w0 = Gc.minor_words () in
    Format.fprintf ppf "%a@." (Tree.pp g) v;
    let w = Gc.minor_words () -. w0 in
    let per_byte = w /. float_of_int !bytes in
    if per_byte > 0.25 then
      Alcotest.failf "Tree.pp: %.3f minor words per output byte (bound 0.25)" per_byte;
    w /. float_of_int (Tree.size v)
  in
  let d = pp_words_per_node deep and f = pp_words_per_node flat in
  if d > 1.5 *. f then
    Alcotest.failf "Tree.pp: %.1f minor words/node deep vs %.1f flat" d f

let test_reject_position () =
  let g =
    Grammar.define ~start:"S"
      [ ("S", [ [ Grammar.t "a"; Grammar.t "b" ] ]) ]
  in
  let w =
    [ Grammar.token ~line:3 ~col:7 g "a" "a"; Grammar.token ~line:3 ~col:9 g "a" "a" ]
  in
  match Parser.parse g w with
  | Parser.Reject msg ->
    let contains s sub =
      let n = String.length s and m = String.length sub in
      let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
      go 0
    in
    check "mentions expected terminal" true (contains msg "'b'");
    check "mentions line" true (contains msg "line 3");
    check "mentions column" true (contains msg "column 9")
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result g) r

let test_leftover_input_rejected () =
  let g = Grammar.define ~start:"S" [ ("S", [ [ Grammar.t "a" ] ]) ] in
  match Parser.parse g (Grammar.tokens g [ "a"; "a" ]) with
  | Parser.Reject msg ->
    check "mentions remaining input" true
      (String.length msg > 0)
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result g) r

let test_run_idempotent () =
  let p = Parser.make list_grammar in
  let w = Grammar.tokens list_grammar [ "x"; "x"; "x" ] in
  match Util.run p w, Util.run p w with
  | Parser.Unique v1, Parser.Unique v2 -> check "same tree" true (Tree.equal v1 v2)
  | _ -> Alcotest.fail "expected Unique twice"

let test_empty_cache_equivalent () =
  let p = Parser.make list_grammar in
  let w = Grammar.tokens list_grammar [ "x"; "x" ] in
  let r1 = Util.run p w in
  let r2 = Util.run ~cache:(Cache.create (Parser.analysis p)) p w in
  match r1, r2 with
  | Parser.Unique v1, Parser.Unique v2 -> check "same tree" true (Tree.equal v1 v2)
  | _ -> Alcotest.fail "expected Unique twice"

(* A run given its own cache shares nothing with the parser's base cache:
   the base learns nothing from it, and the result is the base-cache
   run's.  S needs two tokens after 'x', so its LL(1) cell is a conflict
   that no static entry settles: both caches must build DFA states and
   settle the entry themselves. *)
let ll2_grammar =
  Grammar.define ~start:"S"
    [
      ( "S",
        [
          [ Grammar.t "x"; Grammar.t "y" ];
          [ Grammar.t "x"; Grammar.t "z" ];
          [ Grammar.t "y" ];
        ] );
    ]

let test_private_cache_stays_private () =
  let p = Parser.make ll2_grammar in
  let w = Grammar.tokens ll2_grammar [ "x"; "z" ] in
  let fresh_table = Cache.decisions (Cache.create (Parser.analysis p)) in
  let base_states () = Cache.num_states (Parser.base_cache p) in
  let base_table () = Array.copy (Cache.decisions (Parser.base_cache p)) in
  let before = base_states () in
  let table_before = base_table () in
  let private_cache = Cache.create (Parser.analysis p) in
  let r1 = Util.run ~cache:private_cache p w in
  check_int "base cache untouched" before (base_states ());
  check "base table untouched" true (base_table () = table_before);
  check "private cache learned" true (Cache.num_states private_cache > 0);
  check "private table learned" true
    (Cache.decisions private_cache <> fresh_table);
  let r2 = Util.run p w in
  check "base cache learned" true (base_states () > before);
  check "base table learned" true (base_table () = Cache.decisions private_cache);
  match r1, r2 with
  | Parser.Unique v1, Parser.Unique v2 -> check "same tree" true (Tree.equal v1 v2)
  | _ -> Alcotest.fail "expected Unique twice"

let test_unreachable_left_recursion_harmless () =
  (* The grammar is statically left-recursive (in a dead rule), but parses
     that never touch the cycle still succeed: the correctness theorems
     assume LR-freeness, yet the implementation degrades gracefully. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.t "a" ] ]);
        ("Dead", [ [ Grammar.n "Dead"; Grammar.t "b" ] ]);
      ]
  in
  check "statically LR" true (Left_recursion.check g <> Ok ());
  match Parser.parse g (Grammar.tokens g [ "a" ]) with
  | Parser.Unique _ -> ()
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r

let test_empty_input_non_nullable () =
  let g = Grammar.define ~start:"S" [ ("S", [ [ Grammar.t "a" ] ]) ] in
  match Parser.parse g [] with
  | Parser.Reject _ -> ()
  | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result g) r

let test_foreign_terminal_rejected () =
  (* Tokens whose terminal id belongs to no grammar terminal cannot crash
     the parser; they are ordinary mismatches, or no viable alternative at
     a decision that reads them as lookahead (twice: the second run finds
     the DFA state the first one built). *)
  let alien = Token.make 9999 "???" in
  List.iter
    (fun rules ->
      let g = Grammar.define ~start:"S" rules in
      let p = Parser.make g in
      for _ = 1 to 2 do
        match Util.run p [ alien ] with
        | Parser.Reject _ -> ()
        | r -> Alcotest.failf "expected Reject, got %a" (Parser.pp_result g) r
      done)
    [
      [ ("S", [ [ Grammar.t "a" ] ]) ];
      [ ("S", [ [ Grammar.t "a" ]; [ Grammar.t "b" ] ]) ];
    ]

let test_wide_alternation () =
  (* 40 alternatives with distinct leading terminals: every one must be
     predicted correctly in one token. *)
  let names = List.init 40 (fun i -> Printf.sprintf "t%02d" i) in
  let g =
    Grammar.define ~start:"S"
      [ ("S", List.map (fun name -> [ Grammar.t name; Grammar.t "end" ]) names) ]
  in
  List.iter
    (fun name ->
      match Parser.parse g (Grammar.tokens g [ name; "end" ]) with
      | Parser.Unique v -> (
        match Tree.view v with
        | Tree.Node (_, [ first; _ ]) -> (
          match Tree.view first with
          | Tree.Leaf tok ->
            Alcotest.(check string) "right branch" name (Token.lexeme tok)
          | _ -> Alcotest.failf "%s: first child is not a leaf" name)
        | _ -> Alcotest.failf "%s: unexpected tree shape" name)
      | r -> Alcotest.failf "%s: unexpected %a" name (Parser.pp_result g) r)
    names

let test_long_lookahead_decision () =
  (* S -> A 'x' | A 'y' with A -> 'a' A | eps: the decision for S scans
     the entire run of 'a's; still linear and correct. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "A"; Grammar.t "x" ]; [ Grammar.n "A"; Grammar.t "y" ] ]);
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [] ]);
      ]
  in
  let w = List.init 2000 (fun _ -> "a") @ [ "y" ] in
  match Parser.parse g (Grammar.tokens g w) with
  | Parser.Unique v -> check_int "width" 2001 (Tree.width v)
  | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r

let test_machine_accessors () =
  let p = Parser.make list_grammar in
  let env = Parser.env p in
  let ctx =
    Machine.context env (Word.of_tokens (Grammar.tokens list_grammar [ "x" ]))
  in
  let st = Machine.initial env in
  check_int "initial height" 1 (Machine.height st);
  check_int "initial conts" 1 (List.length (Machine.conts st));
  check "initial state well-formed" true (Machine.stacks_wf env ctx st);
  match Machine.step env ctx st with
  | Machine.Step_cont st' ->
    check_int "after push" 2 (Machine.height st');
    check "still well-formed" true (Machine.stacks_wf env ctx st')
  | _ -> Alcotest.fail "expected Step_cont"

let test_all_rhs_orders_respected () =
  (* Ambiguity resolution commits to the first viable alternative in
     grammar order (the ALL-star policy). *)
  let g1 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  let g2 =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "Y" ]; [ Grammar.n "X" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  let top g =
    match Parser.parse g (Grammar.tokens g [ "a" ]) with
    | Parser.Ambig v as r -> (
      match Tree.view v with
      | Tree.Node (_, [ kid ]) -> (
        match Tree.view kid with
        | Tree.Node (x, _) -> Grammar.nonterminal_name g x
        | _ -> Alcotest.failf "unexpected %a" (Parser.pp_result g) r)
      | _ -> Alcotest.failf "unexpected %a" (Parser.pp_result g) r)
    | r -> Alcotest.failf "unexpected %a" (Parser.pp_result g) r
  in
  Alcotest.(check string) "first alternative (X first)" "X" (top g1);
  Alcotest.(check string) "first alternative (Y first)" "Y" (top g2)

let test_interior_ambiguity_detected () =
  (* Ambiguity deep inside the derivation — not at the start symbol — is
     still detected and propagated to the final label. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.t "("; Grammar.n "M"; Grammar.t ")" ] ]);
        ("M", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
        ("Y", [ [ Grammar.t "a" ] ]);
      ]
  in
  match Parser.parse g (Grammar.tokens g [ "("; "a"; ")" ]) with
  | Parser.Ambig _ -> ()
  | r -> Alcotest.failf "expected Ambig, got %a" (Parser.pp_result g) r

let test_ambiguity_flag_not_sticky_across_runs () =
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X"; Grammar.t "u" ]; [ Grammar.n "X"; Grammar.t "v" ] ]);
        ("X", [ [ Grammar.t "a" ] ]);
      ]
  in
  let p = Parser.make g in
  (* This grammar is unambiguous; repeated runs (warming caches) must keep
     saying Unique. *)
  for _ = 1 to 3 do
    match Util.run p (Grammar.tokens g [ "a"; "v" ]) with
    | Parser.Unique _ -> ()
    | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r
  done

let test_null_ambiguity () =
  (* Two distinct epsilon derivations: ambiguity without any tokens. *)
  let g =
    Grammar.define ~start:"S"
      [
        ("S", [ [ Grammar.n "X" ]; [ Grammar.n "Y" ] ]);
        ("X", [ [] ]);
        ("Y", [ [] ]);
      ]
  in
  match Parser.parse g [] with
  | Parser.Ambig _ -> ()
  | r -> Alcotest.failf "expected Ambig, got %a" (Parser.pp_result g) r

let suite =
  [
    Alcotest.test_case "30k-token input" `Quick test_deep_input;
    Alcotest.test_case "200k-deep tree walks" `Quick test_deep_tree_walks;
    Alcotest.test_case "reject carries position" `Quick test_reject_position;
    Alcotest.test_case "leftover input rejected" `Quick
      test_leftover_input_rejected;
    Alcotest.test_case "run is idempotent" `Quick test_run_idempotent;
    Alcotest.test_case "empty cache equivalent" `Quick
      test_empty_cache_equivalent;
    Alcotest.test_case "private cache stays private" `Quick
      test_private_cache_stays_private;
    Alcotest.test_case "unreachable LR harmless" `Quick
      test_unreachable_left_recursion_harmless;
    Alcotest.test_case "empty input" `Quick test_empty_input_non_nullable;
    Alcotest.test_case "foreign terminal" `Quick test_foreign_terminal_rejected;
    Alcotest.test_case "wide alternation" `Quick test_wide_alternation;
    Alcotest.test_case "long-lookahead decision" `Quick
      test_long_lookahead_decision;
    Alcotest.test_case "machine accessors" `Quick test_machine_accessors;
    Alcotest.test_case "grammar-order commitment" `Quick
      test_all_rhs_orders_respected;
    Alcotest.test_case "interior ambiguity" `Quick
      test_interior_ambiguity_detected;
    Alcotest.test_case "flag not sticky" `Quick
      test_ambiguity_flag_not_sticky_across_runs;
    Alcotest.test_case "null ambiguity" `Quick test_null_ambiguity;
  ]

let () = Alcotest.run "costar_core_extra" [ ("core-extra", suite) ]
