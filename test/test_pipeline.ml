(* Differential tests for the zero-copy token pipeline: the compiled
   buffer scanner against the legacy list scanner (tokens, lexemes,
   positions), the equivalence-classed DFA stepping against the raw
   256-column rows, the subset-constructed DFA against NFA simulation, the array-cursor parser against the list API, and
   the steady-state allocation contract (~0 minor words per token). *)

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

(* A grammar that declares every rule name as a terminal, so both
   pipelines can resolve kinds. *)
let grammar_for rules =
  Grammar.define
    ~extra_terminals:(List.map (fun (r : Scanner.rule) -> r.name) rules)
    ~start:"S"
    [ ("S", [ [] ]) ]

let same_token (t1 : Token.t) (t2 : Token.t) =
  t1.Token.term = t2.Token.term
  && String.equal t1.Token.lexeme t2.Token.lexeme
  && t1.Token.line = t2.Token.line
  && t1.Token.col = t2.Token.col

(* --- properties --------------------------------------------------------- *)

let prop_scan_buf_agrees =
  QCheck.Test.make ~count:1000
    ~name:"scan_buf tokens/lexemes/positions = legacy tokenize"
    arb_spec_input (fun (rules, input) ->
      let sc = Scanner.make rules in
      let g = grammar_for rules in
      let compiled =
        match Scanner.compile sc g with
        | Ok c -> c
        | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
      in
      match Scanner.tokenize sc g input, Scanner.scan_buf compiled input with
      | Ok toks, Ok buf ->
        List.length toks = Token_buf.length buf
        && List.for_all2 same_token toks (Token_buf.to_tokens buf)
      | Error e1, Error e2 ->
        (* Same failure position, both pipelines. *)
        e1.Scanner.err_line = e2.Scanner.err_line
        && e1.Scanner.err_col = e2.Scanner.err_col
      | Ok _, Error _ | Error _, Ok _ -> false)

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

(* Parse differential: a scanner whose rules are single characters over the
   random grammar's terminals, so that random words round-trip through a
   real string input and both the list and buffer pipelines. *)
let single_char_scanner_for g =
  let rules =
    List.init (Grammar.num_terminals g) (fun t ->
        let name = Grammar.terminal_name g t in
        Scanner.rule name (Regex.str name))
  in
  Scanner.make (rules @ [ Scanner.rule "WS" ~skip:true Regex.(plus (chr ' ')) ])

let prop_parse_buf_agrees =
  QCheck.Test.make ~count:400
    ~name:"run_buf verdict+tree = list run verdict+tree"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let sc = single_char_scanner_for g in
        let input = String.concat " " w in
        let compiled =
          match Scanner.compile sc g with
          | Ok c -> c
          | Error msg -> QCheck.Test.fail_reportf "compile failed: %s" msg
        in
        let p = Parser.make g in
        match Scanner.tokenize sc g input, Scanner.scan_buf compiled input with
        | Ok toks, Ok buf ->
          (* Note: tree leaves carry positions from different laziness
             paths; Tree.equal compares terminals and lexemes. *)
          Util.same_result (Util.run p toks) (Parser.run_word p (Word.of_buf buf))
        | Error _, Error _ -> true
        | _ -> false))

(* --- language frontends -------------------------------------------------- *)

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let test_langs_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      List.iter
        (fun seed ->
          let input = Costar_langs.Lang.generate l ~seed ~size:120 in
          let toks = Costar_langs.Lang.tokenize_exn l input in
          let buf = Costar_langs.Lang.tokenize_buf_exn l input in
          check_int
            (Printf.sprintf "%s seed %d: token count" name seed)
            (List.length toks) (Token_buf.length buf);
          List.iteri
            (fun i t ->
              let t' = Token_buf.token buf i in
              if not (same_token t t') then
                Alcotest.failf
                  "%s seed %d: token %d differs: (%d,%S,%d:%d) vs (%d,%S,%d:%d)"
                  name seed i t.Token.term t.Token.lexeme t.Token.line
                  t.Token.col t'.Token.term t'.Token.lexeme t'.Token.line
                  t'.Token.col)
            toks;
          let p = Parser.make (Costar_langs.Lang.grammar l) in
          check
            (Printf.sprintf "%s seed %d: same parse result" name seed)
            true
            (Util.same_result (Util.run p toks)
               (Parser.run_word p (Word.of_buf buf))))
        [ 1; 2; 3 ])
    langs

let test_minipy_indent_error_agrees () =
  (* Inconsistent dedent: both pipelines must reject, with the same
     message. *)
  let l = Costar_langs.Minipy.lang in
  let input = "if x:\n    y = 1\n  z = 2\n" in
  match
    Costar_langs.Lang.tokenize l input, Costar_langs.Lang.tokenize_buf l input
  with
  | Error m1, Error m2 -> Alcotest.(check string) "same error" m1 m2
  | _ -> Alcotest.fail "expected both pipelines to reject"

(* --- steady-state allocation --------------------------------------------- *)

let test_scan_minor_words () =
  let l = Costar_langs.Json.lang in
  let input = Costar_langs.Lang.generate l ~seed:7 ~size:2000 in
  let compiled =
    match
      Scanner.compile
        (Lazy.force Costar_langs.Json.scanner)
        (Costar_langs.Lang.grammar l)
    with
    | Ok c -> c
    | Error msg -> Alcotest.failf "compile failed: %s" msg
  in
  let buf = Token_buf.create_for_input input in
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
          Alcotest.test_case "buffer pipeline = legacy (4 langs)" `Quick
            test_langs_differential;
          Alcotest.test_case "minipy indent errors agree" `Quick
            test_minipy_indent_error_agrees;
          Alcotest.test_case "unboxed loop = step, warm table = fresh (4 langs)"
            `Quick test_corpus_loops_and_table;
          Alcotest.test_case "table hits count as DFA walks (4 langs)" `Quick
            test_table_hits_count_as_walks;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "steady-state scan allocates ~nothing" `Quick
            test_scan_minor_words;
          Alcotest.test_case "warm run_buf stays within the tree-floor budget"
            `Quick test_run_buf_minor_words;
          Alcotest.test_case "warm predict_word allocates O(1) per call"
            `Quick test_predict_word_minor_words;
        ] );
    ]
