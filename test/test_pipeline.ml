(* Differential tests for the token pipeline: the compiled buffer
   scanner and the minipy indenter against the derivative-based
   reference in [Lex_oracle] (tokens, lexemes, positions, lexer errors),
   the equivalence-classed DFA stepping against the raw 256-column rows,
   the subset-constructed DFA against NFA simulation, the array-cursor
   parser against token lists, and the steady-state allocation contract
   (~0 minor words per token). *)

open Costar_grammar
open Costar_core
open Costar_lex

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- random scanner specs ----------------------------------------------- *)

(* A small pool of handwritten regexes over {a, b, c, 0, 1, space}; random
   specs pick a subset (in random order, exercising first-rule-wins) plus a
   skip rule.  None accept the empty string. *)
let regex_pool =
  let open Regex in
  [|
    ("AB", str "ab");
    ("ABC", str "abc");
    ("AS", plus (chr 'a'));
    ("BS", plus (chr 'b'));
    ("LETTERS", plus (set "abc"));
    ("NUM", plus (set "01"));
    ("WORD", seq [ set "abc"; star (set "abc01") ]);
    ("PAIR", seq [ set "ab"; set "01" ]);
    ("OPT0", seq [ chr 'c'; opt (chr '0') ]);
    ("MIX", seq [ chr 'b'; alt [ chr 'a'; chr '1' ] ]);
  |]

let gen_spec : Scanner.rule list QCheck.Gen.t =
  let open QCheck.Gen in
  let n = Array.length regex_pool in
  int_range 2 n >>= fun k ->
  shuffle_l (List.init n Fun.id) >|= fun order ->
  let picked = List.filteri (fun i _ -> i < k) order in
  let rules =
    List.map
      (fun i ->
        let name, re = regex_pool.(i) in
        Scanner.rule name re)
      picked
  in
  rules @ [ Scanner.rule "WS" ~skip:true Regex.(plus (chr ' ')) ]

let gen_input : string QCheck.Gen.t =
  let open QCheck.Gen in
  int_range 0 40 >>= fun len ->
  string_size ~gen:(oneofl [ 'a'; 'b'; 'c'; '0'; '1'; ' ' ]) (return len)

let arb_spec_input =
  QCheck.make
    ~print:(fun (rules, input) ->
      Printf.sprintf "rules: %s\ninput: %S"
        (String.concat " " (List.map (fun (r : Scanner.rule) -> r.name) rules))
        input)
    QCheck.Gen.(pair gen_spec gen_input)

let same_token (t1 : Token.t) (t2 : Token.t) =
  t1.Token.term = t2.Token.term
  && String.equal t1.Token.lexeme t2.Token.lexeme
  && t1.Token.line = t2.Token.line
  && t1.Token.col = t2.Token.col

let same_scan r1 r2 =
  match r1, r2 with
  | Ok toks, Ok buf ->
    List.length toks = Token_buf.length buf
    && List.for_all2 same_token toks (Token_buf.to_tokens buf)
  | Error e1, Error e2 ->
    String.equal (Fmt.str "%a" Scanner.pp_error e1) (Fmt.str "%a" Scanner.pp_error e2)
  | Ok _, Error _ | Error _, Ok _ -> false

(* --- properties --------------------------------------------------------- *)

(* Against the grammar of every rule name, and of all but the first, so
   that the scanner also meets tokens of a rule the grammar lacks. *)
let prop_scan_buf_agrees =
  QCheck.Test.make ~count:1000
    ~name:"scan_buf tokens/lexemes/positions = derivative oracle"
    arb_spec_input (fun (rules, input) ->
      let sc = Scanner.make rules in
      List.for_all
        (fun g ->
          same_scan
            (Lex_oracle.tokenize rules g input)
            (Scanner.scan_buf (Scanner.compile sc g) input))
        [ Lex_oracle.grammar_for rules; Lex_oracle.grammar_for (List.tl rules) ])

let prop_classes_correct =
  QCheck.Test.make ~count:300
    ~name:"class-table stepping = raw-row stepping (all states x 256 bytes)"
    arb_spec_input (fun (rules, _) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let ok = ref true in
      for s = 0 to Dfa.num_states d - 1 do
        for c = 0 to 255 do
          let c = Char.chr c in
          if Dfa.next d s c <> Dfa.next_raw d s c then ok := false
        done
      done;
      !ok)

(* The subset construction against direct NFA simulation: walking the
   input, every DFA state visited must agree with the NFA state set it
   stands for on all 256 successor bytes (dead iff the NFA set empties)
   and on the accepted rule (the lowest one in the set). *)
let prop_dfa_matches_nfa =
  QCheck.Test.make ~count:300 ~name:"DFA rows = NFA subset steps"
    arb_spec_input (fun (rules, input) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let nfa = Nfa.build (List.map (fun (r : Scanner.rule) -> r.re) rules) in
      let accept set =
        List.fold_left
          (fun acc s ->
            match Nfa.accept_rule nfa s, acc with
            | Some ix, Some ix' -> Some (min ix ix')
            | Some ix, None -> Some ix
            | None, acc -> acc)
          None set
      in
      let marks = Nfa.marks nfa in
      let next set c = Nfa.eps_closure marks (Nfa.step marks set c) in
      let rec walk st set i =
        Dfa.accept d st = accept set
        && List.for_all
             (fun c ->
               let c = Char.chr c in
               (Dfa.next_raw d st c < 0) = (next set c = []))
             (List.init 256 Fun.id)
        && (i >= String.length input
           ||
           let st' = Dfa.next_raw d st input.[i] in
           st' < 0 || walk st' (next set input.[i]) (i + 1))
      in
      walk (Dfa.start d) (Nfa.eps_closure marks [ Nfa.start nfa ]) 0)

let prop_classes_partition =
  QCheck.Test.make ~count:300
    ~name:"class table is a partition of the byte range"
    arb_spec_input (fun (rules, _) ->
      let d = Scanner.dfa (Scanner.make rules) in
      let tbl = Dfa.class_table d in
      let nc = Dfa.num_classes d in
      Array.length tbl = 256
      && nc >= 1
      && nc <= 256
      && Array.for_all (fun k -> k >= 0 && k < nc) tbl
      (* Every class id is inhabited. *)
      && List.for_all
           (fun k -> Array.exists (fun k' -> k' = k) tbl)
           (List.init nc Fun.id))

(* Parse differential: scanner rules that are single characters over the
   random grammar's terminals, so that random words round-trip through a
   real string input, both the oracle's token list and the buffer. *)
let single_char_rules_for g =
  List.init (Grammar.num_terminals g) (fun t ->
      let name = Grammar.terminal_name g t in
      Scanner.rule name (Regex.str name))
  @ [ Scanner.rule "WS" ~skip:true Regex.(plus (chr ' ')) ]

let prop_parse_buf_agrees =
  QCheck.Test.make ~count:400
    ~name:"run_buf verdict+tree = list run verdict+tree"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let rules = single_char_rules_for g in
        let input = String.concat " " w in
        let p = Parser.make g in
        match
          ( Lex_oracle.tokenize rules g input,
            Scanner.scan_buf (Scanner.compile (Scanner.make rules) g) input )
        with
        | Ok toks, Ok buf ->
          (* Note: tree leaves carry positions from different laziness
             paths; Tree.equal compares terminals and lexemes. *)
          Util.same_result (Util.run p toks) (Parser.run_word p (Word.of_buf buf))
        | Error _, Error _ -> true
        | _ -> false))

(* --- language frontends -------------------------------------------------- *)

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let check_same_tokens what toks buf =
  check_int (what ^ ": token count") (List.length toks) (Token_buf.length buf);
  List.iteri
    (fun i t ->
      let t' = Token_buf.token buf i in
      if not (same_token t t') then
        Alcotest.failf "%s: token %d differs: (%d,%S,%d:%d) vs (%d,%S,%d:%d)"
          what i t.Token.term t.Token.lexeme t.Token.line t.Token.col
          t'.Token.term t'.Token.lexeme t'.Token.line t'.Token.col)
    toks

let test_langs_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      List.iter
        (fun seed ->
          let input = Costar_langs.Lang.generate l ~seed ~size:120 in
          let toks =
            match Lex_oracle.lang_tokenize l input with
            | Ok toks -> toks
            | Error msg -> Alcotest.failf "%s seed %d: oracle: %s" name seed msg
          in
          let buf = Costar_langs.Lang.tokenize_buf_exn l input in
          check_same_tokens (Printf.sprintf "%s seed %d" name seed) toks buf;
          let p = Parser.make (Costar_langs.Lang.grammar l) in
          check
            (Printf.sprintf "%s seed %d: same parse result" name seed)
            true
            (Util.same_result (Util.run p toks)
               (Parser.run_word p (Word.of_buf buf))))
        [ 1; 2; 3 ])
    langs

let test_minipy_indent_error_agrees () =
  (* Inconsistent dedent: the pipeline and the oracle must reject, with
     the same message. *)
  let l = Costar_langs.Minipy.lang in
  let input = "if x:\n    y = 1\n  z = 2\n" in
  match Lex_oracle.lang_tokenize l input, Costar_langs.Lang.tokenize_buf l input with
  | Error m1, Error m2 -> Alcotest.(check string) "same error" m1 m2
  | _ -> Alcotest.fail "expected both to reject"

(* The end-of-input NEWLINE and DEDENT of an input without a final
   newline sit at [String.length input] (see [Lang.t]). *)
let test_minipy_eof_position () =
  let toks = Costar_langs.(Lang.tokenize_exn Minipy.lang) "if x:\n    y = 1" in
  Alcotest.(check (list (pair int int)))
    "NEWLINE and DEDENT at 2:9" [ (2, 9); (2, 9) ]
    (List.filteri (fun i _ -> i >= List.length toks - 2) toks
    |> List.map (fun t -> (t.Token.line, t.Token.col)))

(* --- the per-domain scratch and exact-size results ---------------------- *)

(* Generated files, a truncated copy (minipy: an open indent), a copy with
   a byte no lexer accepts and the same byte mid-file, and inputs whose
   end-of-input tokens minipy synthesizes: no final newline, trailing
   blank lines, a backslash line join and an open bracket. *)
let lang_inputs l =
  let gen seed = Costar_langs.Lang.generate l ~seed ~size:80 in
  let whole = gen 4 in
  let half = String.length whole / 2 in
  [
    whole;
    gen 5;
    String.sub whole 0 half;
    gen 6 ^ "\x01";
    String.sub whole 0 half ^ "\x01" ^ String.sub whole half (String.length whole - half);
    "";
    "if x:\n    y = 1";
    "if x:\n    y = 1\n\n  \n";
    "x = 1 \\\n";
    "x = (1,\n 2";
  ]

(* The first input of [inputs] on which [lex] and the oracle [reference]
   disagree (tokens, positions or error text), described. *)
let disagreement ~reference ~lex inputs =
  List.find_map
    (fun input ->
      match reference input, lex input with
      | Ok toks, Ok buf when List.length toks = Token_buf.length buf -> (
        match
          List.find_opt
            (fun i -> not (same_token (List.nth toks i) (Token_buf.token buf i)))
            (List.init (List.length toks) Fun.id)
        with
        | None -> None
        | Some i ->
          let t = List.nth toks i and t' = Token_buf.token buf i in
          Some
            (Printf.sprintf "%S: token %d differs: (%d,%S,%d:%d) vs (%d,%S,%d:%d)"
               input i t.Token.term t.Token.lexeme t.Token.line t.Token.col
               t'.Token.term t'.Token.lexeme t'.Token.line t'.Token.col))
      | Ok toks, Ok buf ->
        Some
          (Printf.sprintf "%S: %d tokens vs %d" input (List.length toks)
             (Token_buf.length buf))
      | Error m1, Error m2 ->
        if String.equal m1 m2 then None
        else Some (Printf.sprintf "%S: errors differ: %s vs %s" input m1 m2)
      | Ok _, Error m -> Some (Printf.sprintf "%S: only the pipeline failed: %s" input m)
      | Error m, Ok _ -> Some (Printf.sprintf "%S: only the oracle failed: %s" input m))
    inputs

(* Tokens, positions and lexer error messages of the pipeline agree with
   the oracle on the four languages. *)
let test_langs_errors_agree () =
  List.iter
    (fun l ->
      match
        disagreement ~reference:(Lex_oracle.lang_tokenize l)
          ~lex:(Costar_langs.Lang.tokenize_buf l) (lang_inputs l)
      with
      | None -> ()
      | Some msg -> Alcotest.failf "%s %s" l.Costar_langs.Lang.name msg)
    langs

(* The same over the example lexer specs, through [Scanner.scan_buf]. *)
let example_dir =
  let beside = Filename.concat (Filename.dirname Sys.executable_name) "../examples/grammars" in
  if Sys.file_exists beside then beside else "examples/grammars"

let example_lexer name =
  let read ext = In_channel.with_open_bin (Filename.concat example_dir (name ^ ext)) In_channel.input_all in
  let g =
    match Costar_ebnf.Parse.grammar_of_string (read ".ebnf") with
    | Ok g -> g
    | Error msg -> Alcotest.failf "%s.ebnf: %s" name msg
  in
  match Spec.rules_of_string (read ".lexer") with
  | Ok rules -> (g, rules)
  | Error msg -> Alcotest.failf "%s.lexer: %s" name msg

let scan_lexer g rules input =
  Scanner.scan_buf (Scanner.compile (Scanner.make rules) g) input
  |> Result.map_error (Fmt.str "%a" Scanner.pp_error)

let oracle_lexer g rules input =
  Lex_oracle.tokenize rules g input |> Result.map_error (Fmt.str "%a" Scanner.pp_error)

let example_inputs =
  [
    ( "expr",
      [ "a + 12 * (b - 3) / c_1"; "x\n  * (y +\n 7)\n"; "a + $ b"; "(1 -\n 2) ? 3"; "" ] );
    ( "ini",
      [
        "[main]\nkey = 12 ;\n# a comment\nx = y ;\n";
        "[a]\n[b]\nk=1;";
        "[a]\nk = 1 ;\n  %bad";
        "";
      ] );
  ]

let test_example_lexers_agree () =
  List.iter
    (fun (name, inputs) ->
      let g, rules = example_lexer name in
      match
        disagreement ~reference:(oracle_lexer g rules) ~lex:(scan_lexer g rules) inputs
      with
      | None -> ()
      | Some msg -> Alcotest.failf "%s %s" name msg)
    example_inputs

(* The gate has teeth: a scanner compiled from the same rules with two
   rules' priorities swapped (a keyword after the identifier rule that
   also matches it) must fail the differential against the oracle of the
   real rules, on the same generated file that the real scanner passes. *)
let test_swapped_priorities_caught () =
  List.iter
    (fun (l, keyword, ident) ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let rules = Scanner.rules (Costar_langs.Lang.scanner l) in
      let index rule_name =
        let rec go k = function
          | [] -> Alcotest.failf "%s has no rule %s" name rule_name
          | (r : Scanner.rule) :: rest -> if r.name = rule_name then k else go (k + 1) rest
        in
        go 0 rules
      in
      let i = index keyword and j = index ident in
      let swapped =
        List.mapi
          (fun k r -> if k = i then List.nth rules j else if k = j then List.nth rules i else r)
          rules
      in
      let inputs = [ Costar_langs.Lang.generate l ~seed:4 ~size:80 ] in
      check (name ^ ": the real scanner passes") true
        (disagreement ~reference:(oracle_lexer g rules) ~lex:(scan_lexer g rules) inputs
        = None);
      check
        (Printf.sprintf "%s: %s and %s swapped fail" name keyword ident)
        true
        (disagreement ~reference:(oracle_lexer g rules) ~lex:(scan_lexer g swapped) inputs
        <> None))
    Costar_langs.[ (Minipy.lang, "if", "NAME"); (Dot.lang, "graph", "ID") ]

(* A result never shares storage with the scratch the next scan writes:
   two results taken back to back on one domain both still hold their own
   tokens, whichever language (minipy's goes through the indenter's
   scratch too). *)
let test_results_independent () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let a = Costar_langs.Lang.generate l ~seed:21 ~size:150 in
      let b = Costar_langs.Lang.generate l ~seed:22 ~size:40 in
      let ba = Costar_langs.Lang.tokenize_buf_exn l a in
      let bb = Costar_langs.Lang.tokenize_buf_exn l b in
      (* A failing scan in between must not disturb them either. *)
      ignore (Costar_langs.Lang.tokenize_buf l (b ^ "\x01"));
      let oracle input = Result.get_ok (Lex_oracle.lang_tokenize l input) in
      check_same_tokens (name ^ " first") (oracle a) ba;
      check_same_tokens (name ^ " second") (oracle b) bb;
      check (name ^ ": distinct arrays") true
        (Token_buf.kinds_unsafe ba != Token_buf.kinds_unsafe bb))
    langs

(* A scan returns arrays of exactly [length] elements, and warm, it
   allocates nothing off the heap but those: 12 bytes per token. *)
let test_exact_size_results () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      List.iter
        (fun input ->
          ignore (Costar_langs.Lang.tokenize_buf l input);
          let b0 = Token_buf.allocated_bytes () in
          let buf = Costar_langs.Lang.tokenize_buf_exn l input in
          let n = Token_buf.length buf in
          check_int (name ^ ": dim = length") n
            (Bigarray.Array1.dim (Token_buf.kinds_unsafe buf));
          check_int (name ^ ": warm off-heap bytes = 12 per token") (12 * n)
            (Token_buf.allocated_bytes () - b0))
        [ Costar_langs.Lang.generate l ~seed:31 ~size:400; "" ])
    langs

(* Between scans the per-domain scratch buffers (the scanner's, and the
   indenter's for minipy) keep their capacity but not the last input:
   once the result is dropped, nothing holds the string, whether the
   scan succeeded or failed. *)
let test_scratch_releases_input () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      List.iter
        (fun (what, suffix) ->
          let weak = Weak.create 1 in
          let lex () =
            let input = Costar_langs.Lang.generate l ~seed:41 ~size:2000 ^ suffix in
            Weak.set weak 0 (Some input);
            ignore (Sys.opaque_identity (Costar_langs.Lang.tokenize_buf l input))
          in
          lex ();
          Gc.full_major ();
          check (Printf.sprintf "%s %s: input collected" name what) false
            (Weak.check weak 0))
        [ ("lexed", ""); ("rejected", "\x01") ])
    langs

let test_add_range () =
  let buf = Token_buf.create "" in
  let top = (1 lsl 31) - 1 in
  Token_buf.add buf ~kind:top ~start:top ~stop:top;
  check_int "2^31-1 round-trips" top (Token_buf.end_ofs buf 0);
  check_int "kind round-trips" top (Token_buf.kind buf 0);
  let raises f = match f () with () -> false | exception Invalid_argument _ -> true in
  check "stop past 2^31-1 raises" true
    (raises (fun () -> Token_buf.add buf ~kind:0 ~start:0 ~stop:(top + 1)));
  check "kind past 2^31-1 raises" true
    (raises (fun () -> Token_buf.add buf ~kind:(top + 1) ~start:0 ~stop:0));
  check "negative start raises" true
    (raises (fun () -> Token_buf.add buf ~kind:0 ~start:(-1) ~stop:0));
  check_int "nothing added by the failures" 1 (Token_buf.length buf)

(* --- steady-state allocation --------------------------------------------- *)

let test_scan_minor_words () =
  let l = Costar_langs.Json.lang in
  let input = Costar_langs.Lang.generate l ~seed:7 ~size:2000 in
  let compiled =
    Scanner.compile (Lazy.force Costar_langs.Json.scanner) (Costar_langs.Lang.grammar l)
  in
  let buf = Token_buf.create input in
  Scanner.scan_into compiled buf input;
  let n = Token_buf.length buf in
  check "corpus has tokens" true (n > 1000);
  (* Warm re-scan of the same input into the cleared buffer: the per-token
     cost must be three int writes, i.e. no minor-heap allocation at all
     beyond fixed per-call noise. *)
  Token_buf.clear buf;
  let before = Gc.minor_words () in
  Scanner.scan_into compiled buf input;
  let words = Gc.minor_words () -. before in
  check
    (Printf.sprintf "minor words per token ~ 0 (got %.3f for %d tokens)"
       (words /. float_of_int n) n)
    true
    (words /. float_of_int n < 0.01)

(* Warm end-to-end parse of a scanner buffer: with the DFA cache and its
   first-token table saturated, the per-token cost is the frames the
   machine pushes for non-ε productions (the loop builds no state record
   on the way, and the tree goes to an off-heap event buffer) — a fixed
   budget per language, not zero.  Measured: json 5.2, xml 4.7, dot 12.9,
   minipy 28.2 words/token; each budget is its figure plus 15 %.  A state
   record per step, a prediction call chain that allocates, a boxed tree
   or per-token boxing in the scanner or the word cursor blows past it. *)
let test_run_buf_minor_words () =
  List.iter
    (fun (l, budget) ->
      let name = l.Costar_langs.Lang.name in
      let input = Costar_langs.Lang.generate l ~seed:11 ~size:4000 in
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let buf = Costar_langs.Lang.tokenize_buf_exn l input in
      let n = Token_buf.length buf in
      let run () = ignore (Parser.run_word p (Word.of_buf buf)) in
      check (name ^ " corpus has tokens") true (n > 500);
      (* Two warm-up runs saturate the base DFA cache for this input. *)
      run ();
      run ();
      Gc.full_major ();
      (* Min over samples: one-sided GC/interference noise only inflates. *)
      let best = ref infinity in
      for _ = 1 to 3 do
        let m0 = Gc.minor_words () in
        run ();
        let w = Gc.minor_words () -. m0 in
        if w < !best then best := w
      done;
      let per_tok = !best /. float_of_int (max 1 n) in
      check
        (Printf.sprintf
           "%s warm run_buf minor words/token within budget (got %.1f, \
            budget %.0f)"
           name per_tok budget)
        true (per_tok < budget))
    Costar_langs.
      [ (Json.lang, 6.0); (Xml.lang, 5.4); (Dot.lang, 14.8); (Minipy.lang, 32.5) ]

(* Warm SLL prediction over the array cursor allocates at most a small
   constant per call (a decided hit returns the cache's shared result
   pair), independent of how many tokens the lookahead scans: the scan
   itself reads kinds straight from the off-heap buffer. *)
let test_predict_word_minor_words () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let p = Parser.make g in
  let a = Parser.analysis p in
  let input = Costar_langs.Lang.generate l ~seed:11 ~size:2000 in
  let w = Word.of_buf (Costar_langs.Lang.tokenize_buf_exn l input) in
  ignore (Parser.run_word p w);
  let cache = Parser.base_cache p in
  let x = Grammar.start g in
  ignore (Sll.predict g a cache x w 0);
  Gc.full_major ();
  let reps = 1000 in
  let m0 = Gc.minor_words () in
  for _ = 1 to reps do
    ignore (Sll.predict g a cache x w 0)
  done;
  let per_call = (Gc.minor_words () -. m0) /. float_of_int reps in
  check
    (Printf.sprintf "warm Sll.predict allocates O(1) words/call (got %.1f)"
       per_call)
    true (per_call < 16.)

(* A warm prediction reads lookahead straight off the int32 kinds array
   and ends in a preboxed verdict: nothing at all on the minor heap.  A
   read through an array whose type the compiler cannot see is a C call
   that boxes its int32, one allocation per lookahead token.  The calls
   measured are the (decision, position) pairs, over the first tokens of
   a generated file, whose walk reads at least one token and ends in a
   unique verdict (an instrumented call reports the depth). *)
let test_predict_zero_words () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let p = Parser.make g in
      let a = Parser.analysis p in
      let input = Costar_langs.Lang.generate l ~seed:11 ~size:300 in
      let w = Word.of_buf (Costar_langs.Lang.tokenize_buf_exn l input) in
      ignore (Parser.run_word p w);
      let cache = Parser.base_cache p in
      let calls = ref [] in
      Instr.enabled := true;
      for x = 0 to Grammar.num_nonterminals g - 1 do
        if List.length (Grammar.prods_of g x) > 1 then
          for i = 0 to min 200 (Word.length w) - 1 do
            match Sll.predict g a cache x w i with
            | Types.Unique_pred _, depth when depth >= 1 -> calls := (x, i) :: !calls
            | _ -> ()
          done
      done;
      Instr.enabled := false;
      let calls = Array.of_list !calls in
      check (name ^ ": some predictions read lookahead") true (Array.length calls > 10);
      let xs = Array.map fst calls and is = Array.map snd calls in
      for k = 0 to Array.length calls - 1 do
        ignore (Sll.predict g a cache xs.(k) w is.(k))
      done;
      let m0 = Gc.minor_words () in
      for k = 0 to Array.length calls - 1 do
        ignore (Sll.predict g a cache xs.(k) w is.(k))
      done;
      let words = Gc.minor_words () -. m0 in
      check
        (Printf.sprintf "%s: %d warm Sll.predict calls allocate 0 minor words (got %.0f)"
           name (Array.length calls) words)
        true (words = 0.))
    langs

(* --- token positions -------------------------------------------------- *)

(* Leaf positions go through a last-line hint ([Lines.locate]); whatever
   order tokens are materialized in, each must report exactly the binary
   search's [Lines.pos].  Inputs mix empty lines, a trailing newline or
   none, and tokens on the last line and at the very end of input. *)
let gen_positions =
  let open QCheck.Gen in
  let line = string_size ~gen:(oneofl [ 'a'; 'b'; ' ' ]) (int_bound 5) in
  list_size (int_range 1 6) line >>= fun lines ->
  bool >>= fun trailing_nl ->
  let input = String.concat "\n" lines ^ if trailing_nl then "\n" else "" in
  (* Token start offsets: a random subset of [0, len], always including
     the end of input (where synthesized tokens sit). *)
  let n = String.length input in
  list_repeat (n + 1) bool >>= fun keep ->
  let starts =
    List.filteri (fun i _ -> i = n || List.nth keep i) (List.init (n + 1) Fun.id)
  in
  oneofl [ `Ascending; `Descending; `Random ] >>= fun order ->
  int >|= fun seed -> (input, starts, order, seed)

let prop_token_positions =
  QCheck.Test.make ~count:500 ~name:"hinted token positions = Lines.pos"
    (QCheck.make
       ~print:(fun (input, starts, _, seed) ->
         Printf.sprintf "%S starts=[%s] seed=%d" input
           (String.concat ";" (List.map string_of_int starts))
           seed)
       gen_positions)
    (fun (input, starts, order, seed) ->
      let buf = Token_buf.create input in
      List.iter
        (fun ofs ->
          Token_buf.add buf ~kind:0 ~start:ofs
            ~stop:(min (String.length input) (ofs + 1)))
        starts;
      let n = Token_buf.length buf in
      let idx = Array.init n Fun.id in
      (match order with
      | `Ascending -> ()
      | `Descending -> Array.sort (fun a b -> compare b a) idx
      | `Random ->
        let rng = Random.State.make [| seed |] in
        for i = n - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = idx.(i) in
          idx.(i) <- idx.(j);
          idx.(j) <- t
        done);
      let lines = Lines.build input in
      let w = Word.of_buf buf in
      Array.for_all
        (fun i ->
          let expect = Lines.pos lines (Token_buf.start_ofs buf i) in
          let t = Token_buf.token buf i and t' = Word.token w i in
          (t.Token.line, t.Token.col) = expect
          && (t'.Token.line, t'.Token.col) = expect
          && Token_buf.pos buf i = expect)
        idx)

(* The unboxed machine loop against the primitive step, and a warmed
   first-token table against a fresh cache per input, on the four corpora:
   generated files and their truncated and junk-suffixed copies, so that
   rejects and ε-heavy stretches are both covered.  The warmed runs must
   actually read the table. *)
let test_corpus_loops_and_table () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let words =
        List.concat_map
          (fun seed ->
            let toks =
              Costar_langs.Lang.tokenize_exn l
                (Costar_langs.Lang.generate l ~seed ~size:60)
            in
            let n = List.length toks in
            [
              Word.of_tokens toks;
              Word.of_tokens (List.filteri (fun i _ -> i < n / 2) toks);
              Word.of_tokens (toks @ List.filteri (fun i _ -> i < 3) toks);
            ])
          [ 1; 2; 3 ]
      in
      (* Warm the base cache on every input first. *)
      List.iter (fun w -> ignore (Parser.run_word p w)) words;
      List.iteri
        (fun i w ->
          (match Util.Loops.disagreement p w with
          | None -> ()
          | Some (n1, s1, n2, s2) ->
            Alcotest.failf "%s input %d: %s %s@.%s %s" name i n1 s1 n2 s2);
          let fresh =
            Parser.run_word ~cache:(Cache.create (Parser.analysis p)) p w
          in
          Instr.reset ();
          Instr.enabled := true;
          let warm = Parser.run_word p w in
          Instr.enabled := false;
          if (Instr.cache_totals ()).Instr.table_hits = 0 then
            Alcotest.failf "%s input %d: the warm run never read the table" name i;
          check
            (Printf.sprintf "%s input %d: warm table = fresh cache" name i)
            true
            (Util.same_result ~messages:true fresh warm))
        words)
    Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

(* A table hit counts what the DFA walk it replaces counts, so [--stats]
   reads the same with and without the table.  Coverage recording
   bypasses the table and walks, which gives the reference counts on the
   same warm cache.  A static LL(1) entry read before a token stands for
   the one transition its walk reads, which the walk finds (a hit) or
   builds (a miss), since no DFA state backs the entry. *)
let test_table_hits_count_as_walks () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let w =
        Word.of_buf
          (Costar_langs.Lang.tokenize_buf_exn l
             (Costar_langs.Lang.generate l ~seed:4 ~size:80))
      in
      ignore (Parser.run_word p w);
      let counts ~walk =
        Instr.reset ();
        Instr.enabled := true;
        Instr.cov_enabled := walk;
        ignore (Parser.run_word p w);
        Instr.enabled := false;
        Instr.cov_enabled := false;
        Instr.cov_reset ();
        let c = Instr.cache_totals () in
        (Instr.totals (), c.Instr.trans_hits, c.Instr.trans_misses, c.Instr.table_hits,
         c.Instr.static_hits)
      in
      let (t1, h1, m1, hits, static) = counts ~walk:false in
      let (t2, h2, m2, _, static2) = counts ~walk:true in
      check (name ^ ": the table answered") true (hits > 0);
      check (name ^ ": static entries answered") true (static > 0);
      check_int (name ^ ": the walk reads no static entry") 0 static2;
      check (name ^ ": SLL/LL calls and lookahead") true (t1 = t2);
      check_int (name ^ ": transitions read") (h2 + m2) (h1 + m1 + static))
    Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_token_positions;
      prop_scan_buf_agrees;
      prop_classes_correct;
      prop_dfa_matches_nfa;
      prop_classes_partition;
      prop_parse_buf_agrees;
    ]

let () =
  Alcotest.run "pipeline"
    [
      ("differential", props);
      ( "langs",
        [
          Alcotest.test_case "buffer pipeline = oracle (4 langs)" `Quick
            test_langs_differential;
          Alcotest.test_case "minipy indent errors agree" `Quick
            test_minipy_indent_error_agrees;
          Alcotest.test_case "buffer pipeline = oracle: tokens and lex errors (4 langs)"
            `Quick test_langs_errors_agree;
          Alcotest.test_case "scan_buf = oracle (example lexers)" `Quick
            test_example_lexers_agree;
          Alcotest.test_case "back-to-back results stay independent" `Quick
            test_results_independent;
          Alcotest.test_case "results are exact-size, 12 bytes per token" `Quick
            test_exact_size_results;
          Alcotest.test_case "scratch buffers let go of the input (4 langs)" `Quick
            test_scratch_releases_input;
          Alcotest.test_case "Token_buf.add rejects fields past 2^31-1" `Quick
            test_add_range;
          Alcotest.test_case "unboxed loop = step, warm table = fresh (4 langs)"
            `Quick test_corpus_loops_and_table;
          Alcotest.test_case "table hits count as DFA walks (4 langs)" `Quick
            test_table_hits_count_as_walks;
          Alcotest.test_case "minipy end-of-input tokens at the end of input" `Quick
            test_minipy_eof_position;
          Alcotest.test_case "oracle catches swapped rule priorities" `Quick
            test_swapped_priorities_caught;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "steady-state scan allocates ~nothing" `Quick
            test_scan_minor_words;
          Alcotest.test_case "warm run_buf stays within the tree-floor budget"
            `Quick test_run_buf_minor_words;
          Alcotest.test_case "warm predict_word allocates O(1) per call"
            `Quick test_predict_word_minor_words;
          Alcotest.test_case "warm Sll.predict allocates 0 words (4 langs)"
            `Quick test_predict_zero_words;
        ] );
    ]
