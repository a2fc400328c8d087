(* The costar command-line driver.

     costar parse  --lang json file.json         parse with a built-in language
     costar parse  --grammar g.ebnf --tokens "a b c"   parse terminal names
     costar parse  --lang json --cache json.img file.json   warm-start parse
     costar batch  --lang json -j 4 corpus/      parse a corpus in parallel
     costar check  --grammar g.ebnf              static grammar report
     costar lint   --grammar g.ebnf --lexer g.lexer   coded diagnostics
     costar analyze --grammar g.ebnf             static prediction analysis
     costar analyze --lang json --emit-image json.img   write the cache image
     costar tables --lang json -o json.tables    flat FIRST/FOLLOW/decision image
     costar atn    --lang dot --annotate         decision ATN as GraphViz DOT
     costar lex    --lang minipy file.py         print the token stream
     costar gen    --lang xml --size 100         emit a synthetic corpus file
     costar sample --grammar g.ebnf -n 5         sample sentences
     costar cover  --lang json --close           decision-coverage report
     costar cover  --grammar g.ebnf corpus/      coverage residue of a corpus

   Grammars are given in the textual EBNF format of Costar_ebnf.Parse. *)

open Cmdliner
open Costar_grammar
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module Analyze = Costar_predict_analysis.Analyze
module R = Costar_recover.Recover
module D = Costar_lint.Diagnostic

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* --- Grammar / language sources ---------------------------------------- *)

let load_grammar ?start path =
  match Costar_ebnf.Parse.grammar_of_string ?start (read_file path) with
  | Ok g -> Ok g
  | Error msg -> Error (Printf.sprintf "%s: %s" path msg)

let find_lang name =
  match Costar_langs.Registry.find name with
  | Some l -> Ok l
  | None ->
    Error
      (Printf.sprintf "unknown language %s (available: %s)" name
         (String.concat ", " Costar_langs.Registry.names))

let lang_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "lang" ] ~docv:"LANG"
        ~doc:"Built-in benchmark language (json, xml, dot, minipy).")

let grammar_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "grammar"; "g" ] ~docv:"FILE"
        ~doc:"Grammar file in the textual EBNF format.")

let lexer_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "lexer" ] ~docv:"FILE"
        ~doc:"Lexer specification file (token rules as regex patterns).")

let start_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "start" ] ~docv:"NT"
        ~doc:"Start symbol (defaults to the first rule).")

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("costar: " ^ msg);
    exit 1

(* Tokenize [input] for the selected source: a built-in language uses its
   lexer, a --lexer spec builds one, and a bare grammar interprets the
   input as whitespace-separated terminal names. *)
let tokens_of_input ?lexer g lang input =
  match lang, lexer with
  | Some l, _ -> (
    match Costar_langs.Lang.tokenize l input with
    | Ok toks -> Ok toks
    | Error msg -> Error msg)
  | None, Some path -> (
    match Costar_lex.Spec.scanner_of_string (read_file path) with
    | Error msg -> Error (Printf.sprintf "%s: %s" path msg)
    | Ok sc -> (
      match Costar_lex.Scanner.tokenize sc g input with
      | Ok toks -> Ok toks
      | Error e -> Error (Fmt.str "%a" Costar_lex.Scanner.pp_error e)))
  | None, None -> (
    let names =
      List.filter (fun s -> s <> "") (String.split_on_char ' '
        (String.concat " " (String.split_on_char '\n' input)))
    in
    match
      List.partition_map
        (fun name ->
          match Grammar.terminal_of_name g name with
          | Some a -> Left (Token.make a name)
          | None -> Right name)
        names
    with
    | toks, [] -> Ok toks
    | _, bad ->
      Error
        (Printf.sprintf "not terminals of the grammar: %s"
           (String.concat ", " bad)))

(* The zero-copy pipeline, when the source has a real lexer: a built-in
   language, or a --lexer spec whose rule names all resolve against the
   grammar.  [None] means fall back to the list path ([tokens_of_input]):
   either the input is bare terminal names, or the spec has rules the
   grammar lacks — which the legacy path reports lazily, only if such a
   token actually appears. *)
let buf_of_input ?lexer g lang input =
  match lang, lexer with
  | Some l, _ -> Some (Costar_langs.Lang.tokenize_buf l input)
  | None, Some path -> (
    match Costar_lex.Spec.scanner_of_string (read_file path) with
    | Error msg -> Some (Error (Printf.sprintf "%s: %s" path msg))
    | Ok sc -> (
      match Costar_lex.Scanner.compile sc g with
      | Error _ -> None
      | Ok c -> (
        match Costar_lex.Scanner.scan_buf c input with
        | Ok buf -> Some (Ok buf)
        | Error e -> Some (Error (Fmt.str "%a" Costar_lex.Scanner.pp_error e)))))
  | None, None -> None

let resolve_source lang grammar start =
  match lang, grammar with
  | Some name, None ->
    let l = or_die (find_lang name) in
    (Costar_langs.Lang.grammar l, Some l)
  | None, Some path -> (or_die (load_grammar ?start path), None)
  | _ ->
    prerr_endline "costar: give exactly one of --lang or --grammar";
    exit 1

(* --- shared diagnostic plumbing ----------------------------------------- *)

module Lint = Costar_lint.Lint
module Render = Costar_lint.Render

(* Exit-policy arguments shared by parse, lint, analyze, and cover: one
   policy, every command that emits coded diagnostics. *)
let max_warnings_arg =
  Arg.(
    value
    & opt int 0
    & info [ "max-warnings" ] ~docv:"N"
        ~doc:"Tolerate up to N warnings before exiting nonzero (default 0).")

let max_severity_arg ~default =
  Arg.(
    value
    & opt
        (enum
           [
             ("none", Lint.Gate_none);
             ("info", Lint.Gate_info);
             ("warning", Lint.Gate_warning);
             ("error", Lint.Gate_error);
           ])
        default
    & info [ "max-severity" ] ~docv:"SEV"
        ~doc:
          "Most severe diagnostic level tolerated with exit 0: none, info, \
           warning, or error (error = report-only, never fail).")

let diag_format_arg =
  Arg.(
    value
    & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ]) `Text
    & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text, json, or sarif.")

let tool_version = "1.0.0"

let recover_arg =
  Arg.(
    value & flag
    & info [ "recover" ]
        ~doc:
          "Recover from syntax errors instead of stopping at the first one: \
           repair (insert/delete a token), resynchronize on the dataflow \
           sync sets, and continue, reporting every failure as a coded \
           diagnostic and emitting a partial parse tree with explicit \
           ERROR nodes.")

(* Render parse-time diagnostics (P-codes) in the selected format and
   return the shared-policy exit code: every failure kind — lexical or
   parse-time — flows through this one renderer. *)
let render_diags format ~max_severity ~max_warnings diags =
  (match format with
  | `Text -> print_string (Render.text diags)
  | `Json -> print_string (Render.json diags)
  | `Sarif -> print_string (Lint.sarif ~tool_version diags));
  Lint.exit_code ~max_severity ~max_warnings diags

(* Without --recover the engine bails at the first failure (max_errors =
   0), whose event then carries a give-up repair note; strip those
   "recovery:" notes — the user never asked for recovery. *)
let strip_recovery_notes (d : D.t) =
  {
    d with
    D.notes =
      List.filter
        (fun n -> not (String.length n >= 9 && String.sub n 0 9 = "recovery:"))
        d.D.notes;
  }

(* --- parse -------------------------------------------------------------- *)

let parse_cmd =
  let input_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"INPUT" ~doc:"Input file (defaults to stdin).")
  in
  let tokens_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "tokens" ] ~docv:"NAMES"
          ~doc:"Parse this whitespace-separated terminal-name sequence.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Print the tree as GraphViz DOT.")
  in
  let trace_arg =
    Arg.(value & flag & info [ "trace" ] ~doc:"Print the machine trace.")
  in
  let cache_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "cache" ] ~docv:"FILE"
          ~doc:
            "Start from a prediction-DFA cache image written by \
             $(b,costar analyze --emit-image), loaded zero-copy via mmap; \
             its grammar fingerprint must match.")
  in
  let stats_arg =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Print prediction and DFA-cache statistics (lookahead consumed, \
             state interns, transition and closure-memo hit rates, static \
             LL(1) table hits) to stderr after parsing.")
  in
  let run lang grammar lexer start input tokens dot trace cache_file stats
      recover format max_severity max_warnings =
    let g, l = resolve_source lang grammar start in
    let text =
      match tokens, input with
      | Some t, _ -> t
      | None, Some path -> read_file path
      | None, None -> In_channel.input_all stdin
    in
    let file = match tokens, input with None, Some path -> Some path | _ -> None in
    let p = P.make g in
    if stats then begin
      Costar_core.Instr.reset ();
      Costar_core.Instr.enabled := true
    end;
    let lex_t0 = Unix.gettimeofday () in
    let lex_minor0 = Gc.minor_words () in
    let word =
      match buf_of_input ?lexer g l text with
      | Some (Ok buf) -> Ok (Word.of_buf buf)
      | Some (Error msg) -> Error msg
      | None -> Result.map Word.of_tokens (tokens_of_input ?lexer g l text)
    in
    let word =
      match word with
      | Ok w -> w
      | Error msg ->
        (* A lexical failure renders exactly like a parse failure: one
           P004 diagnostic through the shared renderer and exit policy. *)
        exit
          (render_diags format ~max_severity ~max_warnings
             [ R.lex_diag ?file msg ])
    in
    let lex_t = Unix.gettimeofday () -. lex_t0 in
    let lex_minor = Gc.minor_words () -. lex_minor0 in
    let cache =
      Option.map
        (fun cf ->
          or_die
            (Result.map_error
               (fun e -> cf ^ ": " ^ Cache.image_error_to_string e)
               (Cache.load_image ~anl:(P.analysis p)
                  ~fingerprint:(Grammar.fingerprint g) cf)))
        cache_file
    in
    if trace then ignore (Costar_core.Trace.print ?cache p word)
    else begin
      let eng = R.make p in
      let max_errors = if recover then 100 else 0 in
      let parse_t0 = Unix.gettimeofday () in
      let parse_minor0 = Gc.minor_words () in
      let outcome = R.run_word ?file ~max_errors ?cache eng word in
      let parse_t = Unix.gettimeofday () -. parse_t0 in
      let parse_minor = Gc.minor_words () -. parse_minor0 in
      let n = Word.length word in
      let per_token words = words /. float_of_int (max 1 n) in
      if stats then begin
        let toks_s t = if t > 0. then float_of_int n /. t else 0. in
        Printf.eprintf
          "lexing: %d tokens from %d bytes in %.4fs (%.2f Mtokens/s, %.1f \
           MB/s); %.3f minor words/token\n"
          n (String.length text) lex_t
          (toks_s lex_t /. 1e6)
          (float_of_int (String.length text) /. lex_t /. 1e6)
          (per_token lex_minor);
        (* Includes prediction instrumentation, which --stats turns on. *)
        Printf.eprintf "parsing: %.4fs; %.3f minor words/token\n" parse_t
          (per_token parse_minor);
        (* Warm steady-state: rerun the buffer pipeline now that the
           compiled scanner (and any lazy tables) exist. *)
        (match buf_of_input ?lexer g l text with
        | Some (Ok _) ->
          let t0 = Unix.gettimeofday () in
          let m0 = Gc.minor_words () in
          (match buf_of_input ?lexer g l text with
          | Some (Ok buf) ->
            let t = Unix.gettimeofday () -. t0 in
            let m = Gc.minor_words () -. m0 in
            Printf.eprintf
              "lexing (warm): %.2f Mtokens/s, %.1f MB/s; %.3f minor \
               words/token\n"
              (toks_s t /. 1e6)
              (float_of_int (String.length text) /. t /. 1e6)
              (m /. float_of_int (max 1 (Costar_grammar.Token_buf.length buf)))
          | _ -> ())
        | _ -> ())
      end;
      if stats then begin
        let module I = Costar_core.Instr in
        let sll_calls, sll_toks, ll_calls, ll_toks = I.totals () in
        let c = I.cache_totals () in
        let pct num den =
          if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den
        in
        Printf.eprintf
          "prediction: %d SLL calls (%d lookahead tokens), %d LL calls (%d \
           lookahead tokens)\n"
          sll_calls sll_toks ll_calls ll_toks;
        Printf.eprintf
          "dfa cache: %d state interns; transitions %d hits / %d misses \
           (%.1f%% hit); closure memo %d hits / %d misses (%.1f%% hit); \
           static LL(1) %d hits\n"
          c.I.state_interns c.I.trans_hits c.I.trans_misses
          (pct c.I.trans_hits (c.I.trans_hits + c.I.trans_misses))
          c.I.closure_hits c.I.closure_misses
          (pct c.I.closure_hits (c.I.closure_hits + c.I.closure_misses))
          c.I.static_hits;
        I.enabled := false
      end;
      match outcome.R.verdict with
      | R.Fatal e ->
        prerr_endline ("error: " ^ Costar_core.Types.error_to_string g e);
        exit 2
      | R.Recovered v | R.Recovered_ambig v ->
        (match outcome.R.verdict with
        | R.Recovered_ambig _ -> prerr_endline "warning: input is ambiguous"
        | _ -> ());
        let diags = R.diagnostics outcome in
        let render () =
          let t0 = Unix.gettimeofday () in
          let m0 = Gc.minor_words () in
          if dot then print_string (Tree.to_dot g v)
          else Fmt.pr "%a@." (Tree.pp g) v;
          if stats then
            Printf.eprintf "rendering: %.4fs; %.3f minor words/token\n"
              (Unix.gettimeofday () -. t0)
              (per_token (Gc.minor_words () -. m0))
        in
        if diags = [] then render ()
        else begin
          let diags =
            if recover then diags else List.map strip_recovery_notes diags
          in
          (* With --recover the partial tree (explicit ERROR nodes) follows
             the diagnostics in text mode; structured formats carry the
             diagnostics alone. *)
          let code = render_diags format ~max_severity ~max_warnings diags in
          if recover && format = `Text then render ();
          exit code
        end
    end
  in
  let term =
    Term.(
      const run $ lang_arg $ grammar_arg $ lexer_arg $ start_arg $ input_arg
      $ tokens_arg $ dot_arg $ trace_arg $ cache_arg $ stats_arg $ recover_arg
      $ diag_format_arg
      $ max_severity_arg ~default:Lint.Gate_warning
      $ max_warnings_arg)
  in
  Cmd.v
    (Cmd.info "parse"
       ~doc:
         "Parse input and print the parse tree.  Failures of every kind \
          (lexical, mismatch, no-viable-alternative, trailing input) are \
          coded span-carrying diagnostics (P001-P004) rendered as text, \
          JSON, or SARIF; $(b,--recover) repairs and resynchronizes \
          instead of stopping, emitting a partial tree with explicit ERROR \
          nodes.  Exit: 0 clean, 2 on error diagnostics (the shared \
          --max-severity policy).")
    term

(* --- lint / check ------------------------------------------------------- *)

(* Build the lint input for the selected sources.  Syntax errors in either
   file are fatal (exit 2): there is nothing to lint yet. *)
let lint_input lang grammar start lexer =
  let input = Lint.empty_input in
  let input =
    match lang, grammar with
    | Some _, Some _ ->
      prerr_endline "costar: give at most one of --lang or --grammar";
      exit 2
    | Some name, None ->
      let l = or_die (find_lang name) in
      { input with Lint.prebuilt = Some (Costar_langs.Lang.grammar l) }
    | None, Some path -> (
      match Costar_ebnf.Parse.rules_of_string (read_file path) with
      | Error msg ->
        prerr_endline (Printf.sprintf "costar: %s: %s" path msg);
        exit 2
      | Ok rules ->
        { input with Lint.rules = Some rules; grammar_file = Some path; start })
    | None, None -> input
  in
  let input =
    match lexer with
    | None -> input
    | Some path -> (
      match Costar_lex.Spec.srules_of_string (read_file path) with
      | Error msg ->
        prerr_endline (Printf.sprintf "costar: %s: %s" path msg);
        exit 2
      | Ok rules ->
        { input with Lint.lexer = Some rules; lexer_file = Some path })
  in
  if input.Lint.rules = None && input.Lint.prebuilt = None
     && input.Lint.lexer = None
  then begin
    prerr_endline "costar: give at least one of --lang, --grammar, or --lexer";
    exit 2
  end;
  input

let lint_cmd =
  let run lang grammar lexer start format max_severity max_warnings =
    let input = lint_input lang grammar start lexer in
    let diags = Lint.run input in
    (match format with
    | `Text -> print_string (Render.text diags)
    | `Json -> print_string (Render.json diags)
    | `Sarif -> print_string (Lint.sarif ~tool_version diags));
    exit (Lint.exit_code ~max_severity ~max_warnings diags)
  in
  let term =
    Term.(
      const run $ lang_arg $ grammar_arg $ lexer_arg $ start_arg
      $ diag_format_arg
      $ max_severity_arg ~default:Lint.Gate_warning
      $ max_warnings_arg)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:
         "Static analysis with coded, span-carrying diagnostics (grammar \
          and lexer spec).  Exit code: 0 clean, 1 warnings, 2 errors \
          (tune with --max-severity/--max-warnings).")
    term

(* The check report is the lint engine plus grammar sizes: same codes, text
   rendering, but always exit 0 (it is a report, not a gate). *)
let check_cmd =
  let run lang grammar start =
    let g, _ = resolve_source lang grammar start in
    Printf.printf "terminals:    %d\nnonterminals: %d\nproductions:  %d\n"
      (Grammar.num_terminals g)
      (Grammar.num_nonterminals g)
      (Grammar.num_productions g);
    let input = lint_input lang grammar start None in
    print_string (Render.text (Lint.run input))
  in
  let term = Term.(const run $ lang_arg $ grammar_arg $ start_arg) in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Static grammar report: sizes plus the full lint diagnostics \
          (left recursion, reachability, LL(1) conflicts, ...).")
    term

(* --- analyze ------------------------------------------------------------ *)

module Analyze_render = Costar_lint.Analyze_render

let analyze_cmd =
  let k_arg =
    Arg.(
      value
      & opt int Analyze.default_k
      & info [ "k" ] ~docv:"K"
          ~doc:
            "Lookahead bound: report minimal k for decisions that are \
             SLL(k) with k <= K, and `beyond' otherwise.")
  in
  let emit_image_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "emit-image" ] ~docv:"FILE"
          ~doc:
            "Write the prediction-DFA cache built during analysis as a v3 \
             flat image: one contiguous int32-LE file that \
             $(b,costar parse --cache) and \
             $(b,costar batch --image) map read-only via mmap, so any \
             number of processes share a single copy with zero \
             deserialization.")
  in
  let run lang grammar start format k emit_image max_severity max_warnings =
    let g, _ = resolve_source lang grammar start in
    let r = Analyze.analyze ~k g in
    (* The same A-code diagnostics `costar lint` emits, for the SARIF
       rendering and the shared exit policy. *)
    let diags =
      lazy
        (List.stable_sort Costar_lint.Diagnostic.compare
           (Costar_lint.Rules_predict.of_result
              (Costar_lint.Rules_grammar.make_ctx g)
              r))
    in
    (match format with
    | `Text -> print_string (Analyze_render.text r)
    | `Json -> print_string (Analyze_render.json r)
    | `Sarif -> print_string (Lint.sarif ~tool_version (Lazy.force diags)));
    (match emit_image with
    | None -> ()
    | Some file ->
      Cache.save_image ~fingerprint:(Grammar.fingerprint g) r.Analyze.cache
        file;
      Printf.eprintf "costar: wrote %s (v3 image, %d DFA states)\n" file
        (Cache.num_states r.Analyze.cache));
    exit (Lint.exit_code ~max_severity ~max_warnings (Lazy.force diags))
  in
  let term =
    Term.(
      const run $ lang_arg $ grammar_arg $ start_arg $ diag_format_arg $ k_arg
      $ emit_image_arg
      $ max_severity_arg ~default:Lint.Gate_error
      $ max_warnings_arg)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Static prediction analysis: minimal SLL(k) lookahead per decision, \
          colliding alternatives with distinguishing-prefix witnesses, \
          Earley-confirmed ambiguities, and reachability of the LL \
          fallback.  Optionally emits the prediction-DFA cache image.  \
          Exits by the shared --max-severity policy over the A-code \
          diagnostics (default: error, i.e. report-only).")
    term

(* --- tables ------------------------------------------------------------- *)

module Tables = Costar_predict_analysis.Tables

let tables_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the flat tables image to FILE instead of dumping it.")
  in
  let verify_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "verify" ] ~docv:"FILE"
          ~doc:
            "Differential gate: load FILE, check it round-trips byte-equal, \
             matches a fresh export bit for bit, and reconstructs decisions \
             identical to the live analyzer.  Exit 0 iff all hold.")
  in
  let k_arg =
    Arg.(
      value
      & opt int Analyze.default_k
      & info [ "k" ] ~docv:"K"
          ~doc:"Lookahead bound for the decision analysis (as in analyze).")
  in
  let run lang grammar start out verify k =
    let g, _ = resolve_source lang grammar start in
    let anl = Analysis.make g in
    let r = Analyze.analyze ~k ~analysis:anl g in
    let live = Tables.build anl r in
    match verify with
    | Some file -> (
      match Tables.load ~expect_fingerprint:(Grammar.fingerprint g) file with
      | Error e ->
        Printf.eprintf "costar tables: %s: %s\n" file
          (Tables.error_to_string e);
        exit 2
      | Ok img ->
        let failures = ref [] in
        let check what ok = if not ok then failures := what :: !failures in
        check "image differs from a fresh export"
          (Tables.encode img = Tables.encode live);
        check "image does not round-trip byte-equal"
          (Tables.encode img = read_file file);
        check "reconstructed decisions differ from the live analyzer"
          (Tables.same_decisions (Tables.decisions img) r.Analyze.decisions);
        (match List.rev !failures with
        | [] ->
          let n_terms, n_nts, n_prods, n_decisions = Tables.sizes img in
          Printf.printf
            "ok: %s matches the live analysis (%d terminals, %d \
             nonterminals, %d productions, %d decisions)\n"
            file n_terms n_nts n_prods n_decisions
        | fs ->
          List.iter (Printf.eprintf "costar tables: %s: %s\n" file) fs;
          exit 1))
    | None -> (
      match out with
      | Some file ->
        Tables.save live file;
        let n_terms, n_nts, n_prods, n_decisions = Tables.sizes live in
        Printf.eprintf
          "costar: wrote %s (%d terminals, %d nonterminals, %d productions, \
           %d decisions)\n"
          file n_terms n_nts n_prods n_decisions
      | None -> print_string (Tables.dump g live))
  in
  let term =
    Term.(
      const run $ lang_arg $ grammar_arg $ start_arg $ out_arg $ verify_arg
      $ k_arg)
  in
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Export the grammar dataflow facts (NULLABLE / FIRST / FOLLOW / \
          sync sets) and the per-decision SLL verdicts as a fingerprinted \
          flat int-array image; dump it, or verify an existing image \
          against the live analyses.")
    term

(* --- atn ---------------------------------------------------------------- *)

let atn_cmd =
  let annotate_arg =
    Arg.(
      value & flag
      & info [ "annotate" ]
          ~doc:
            "Run the prediction analyzer and label each decision entry \
             state with its lookahead verdict.")
  in
  let run lang grammar start annotate =
    let g, _ = resolve_source lang grammar start in
    let atn = Atn.of_grammar g in
    if not annotate then print_string (Atn.to_dot atn)
    else begin
      let r = Analyze.analyze g in
      let decision_label x =
        match Analyze.decision_for r x with
        | Some d when d.Analyze.error = None ->
          let s = Analyze.lookahead_to_string d.Analyze.lookahead in
          Some
            (if Analyze.ll_fallback_possible d then s ^ "; LL fallback"
             else s)
        | _ -> None
      in
      print_string (Atn.to_dot ~decision_label atn)
    end
  in
  let term =
    Term.(const run $ lang_arg $ grammar_arg $ start_arg $ annotate_arg)
  in
  Cmd.v
    (Cmd.info "atn"
       ~doc:
         "Print the grammar's augmented transition network as GraphViz DOT \
          (one box per decision entry; $(b,--annotate) adds analyzer \
          verdicts).")
    term

(* --- lex ---------------------------------------------------------------- *)

let lex_cmd =
  let input_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"INPUT" ~doc:"Input file (defaults to stdin).")
  in
  let format_arg =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc:"Output format: text or json.")
  in
  let stats_arg =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Print scan throughput (tokens/s, MB/s) and GC minor words per \
             token to stderr; the warm line rescans with all lazy tables \
             built.")
  in
  let run lang input format stats =
    let name =
      match lang with
      | Some n -> n
      | None ->
        prerr_endline "costar lex: --lang is required";
        exit 1
    in
    let l = or_die (find_lang name) in
    let g = Costar_langs.Lang.grammar l in
    let text =
      match input with
      | Some path -> read_file path
      | None -> In_channel.input_all stdin
    in
    let t0 = Unix.gettimeofday () in
    let m0 = Gc.minor_words () in
    match Costar_langs.Lang.tokenize_buf l text with
    | Error msg ->
      prerr_endline ("lexical error: " ^ msg);
      exit 1
    | Ok buf ->
      let lex_t = Unix.gettimeofday () -. t0 in
      let lex_minor = Gc.minor_words () -. m0 in
      let n = Token_buf.length buf in
      (* The dump below is where lexemes and positions are materialized —
         the scan recorded only kind and offsets. *)
      (match format with
      | `Text ->
        for i = 0 to n - 1 do
          let line, col = Token_buf.pos buf i in
          Printf.printf "%4d:%-3d %6d-%-6d %-16s %s\n" line col
            (Token_buf.start_ofs buf i)
            (Token_buf.end_ofs buf i)
            (Grammar.terminal_name g (Token_buf.kind buf i))
            (String.escaped (Token_buf.lexeme buf i))
        done
      | `Json ->
        print_string "[";
        for i = 0 to n - 1 do
          let line, col = Token_buf.pos buf i in
          Printf.printf "%s\n  {\"kind\": %S, \"start\": %d, \"end\": %d, \
                         \"line\": %d, \"col\": %d, \"lexeme\": %S}"
            (if i = 0 then "" else ",")
            (Grammar.terminal_name g (Token_buf.kind buf i))
            (Token_buf.start_ofs buf i)
            (Token_buf.end_ofs buf i)
            line col
            (Token_buf.lexeme buf i)
        done;
        print_string "\n]\n");
      if stats then begin
        let report label t minor n =
          Printf.eprintf
            "%s: %d tokens from %d bytes in %.4fs (%.2f Mtokens/s, %.1f \
             MB/s); %.3f minor words/token\n"
            label n (String.length text) t
            (float_of_int n /. t /. 1e6)
            (float_of_int (String.length text) /. t /. 1e6)
            (minor /. float_of_int (max 1 n))
        in
        report "scan (cold)" lex_t lex_minor n;
        let t0 = Unix.gettimeofday () in
        let m0 = Gc.minor_words () in
        match Costar_langs.Lang.tokenize_buf l text with
        | Ok buf2 ->
          report "scan (warm)"
            (Unix.gettimeofday () -. t0)
            (Gc.minor_words () -. m0)
            (Token_buf.length buf2)
        | Error _ -> ()
      end
  in
  let term = Term.(const run $ lang_arg $ input_arg $ format_arg $ stats_arg) in
  Cmd.v
    (Cmd.info "lex"
       ~doc:
         "Tokenize input with a built-in lexer (zero-copy buffer pipeline) \
          and dump the token buffer.")
    term

(* --- batch -------------------------------------------------------------- *)

let batch_cmd =
  let paths_arg =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"PATH"
          ~doc:
            "Input files and/or directories (every regular file directly \
             inside a directory is taken).")
  in
  let list_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "files" ] ~docv:"LIST"
          ~doc:"Read additional input paths from LIST, one per line.")
  in
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains"; "j" ] ~docv:"N"
          ~doc:
            "Worker domains (default: the runtime's recommended domain \
             count).")
  in
  let round_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "round-size" ] ~docv:"K"
          ~doc:
            "Files handed out per round; worker DFA overlays are merged \
             into the shared cache between rounds (default: one round over \
             the whole corpus).")
  in
  let image_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "image" ] ~docv:"FILE"
          ~doc:
            "mmap a v3 flat cache image (written by $(b,costar analyze \
             --emit-image)) read-only as the shared prediction-DFA base. \
             With $(b,--prefork), every worker process shares the same \
             physical pages.")
  in
  let prefork_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "prefork" ] ~docv:"N"
          ~doc:
            "Use N forked worker $(i,processes) instead of domains. Each \
             worker has a private heap and GC (no stop-the-world coupling); \
             combine with $(b,--image) to share one mmapped DFA cache \
             across all workers.")
  in
  let quiet_arg =
    Arg.(
      value
      & flag
      & info [ "quiet"; "q" ]
          ~doc:"Suppress per-file verdict lines; only report failures.")
  in
  let stats_arg =
    Arg.(
      value
      & flag
      & info [ "stats" ]
          ~doc:
            "Print aggregate throughput (files/s, MB/s) and per-domain \
             DFA-cache hit rates to stderr.")
  in
  let collect_inputs paths list_file =
    let from_list =
      match list_file with
      | None -> []
      | Some file ->
        List.filter
          (fun l -> String.trim l <> "")
          (String.split_on_char '\n' (read_file file))
    in
    let expand path =
      if Sys.is_directory path then
        Sys.readdir path |> Array.to_list |> List.sort compare
        |> List.map (Filename.concat path)
        |> List.filter (fun f -> not (Sys.is_directory f))
      else [ path ]
    in
    List.concat_map expand (paths @ List.map String.trim from_list)
  in
  let run lang paths list_file domains round_size image prefork quiet stats
      recover =
    let name =
      match lang with
      | Some n -> n
      | None ->
        prerr_endline "costar batch: --lang is required";
        exit 1
    in
    let l = or_die (find_lang name) in
    let g = Costar_langs.Lang.grammar l in
    let files =
      match collect_inputs paths list_file with
      | [] ->
        prerr_endline "costar batch: no input files";
        exit 1
      | files -> Array.of_list files
    in
    let contents = Array.map read_file files in
    let tokenize s =
      Result.map Word.of_buf (Costar_langs.Lang.tokenize_buf l s)
    in
    let p = P.make g in
    (match image with
    | None -> ()
    | Some file -> (
      match
        Cache.load_image ~anl:(P.analysis p)
          ~fingerprint:(Grammar.fingerprint g) file
      with
      | Ok c -> P.set_base_cache p c
      | Error e ->
        Printf.eprintf "costar batch: %s: %s\n" file
          (Cache.image_error_to_string e);
        exit 1));
    if stats then begin
      Costar_core.Instr.reset ();
      Costar_core.Instr.enabled := true
    end;
    let t0 = Unix.gettimeofday () in
    let results, st =
      match prefork with
      | Some workers ->
        Costar_parallel.Batch.run_prefork ~workers p ~tokenize contents
      | None ->
        Costar_parallel.Batch.run_batch ?domains ?round_size p ~tokenize
          contents
    in
    let wall = Unix.gettimeofday () -. t0 in
    Costar_core.Instr.enabled := false;
    (* With --recover, every failing file gets a sequential second pass
       through the recovery engine: full coded diagnostics per file instead
       of one first-error line.  The parallel verdicts are untouched —
       recovery never changes accept/reject, only what is reported. *)
    let eng = lazy (R.make p) in
    let print_diags ds =
      match Render.text ~with_summary:false ds with
      | "" -> ()
      | s ->
        print_string s;
        print_newline ()
    in
    let recover_report i =
      match Costar_langs.Lang.tokenize l contents.(i) with
      | Error msg -> print_diags [ R.lex_diag ~file:files.(i) msg ]
      | Ok toks ->
        let o = R.run_word ~file:files.(i) (Lazy.force eng) (Word.of_tokens toks) in
        print_diags (R.diagnostics o)
    in
    let failures = ref 0 in
    Array.iteri
      (fun i r ->
        let file = files.(i) in
        match r with
        | Ok (P.Unique _) -> if not quiet then Printf.printf "%s: ok\n" file
        | Ok (P.Ambig _) ->
          if not quiet then Printf.printf "%s: ok (ambiguous)\n" file
        | Ok (P.Reject msg) ->
          incr failures;
          if recover then recover_report i
          else Printf.printf "%s: syntax error: %s\n" file msg
        | Ok (P.Error e) ->
          incr failures;
          Printf.printf "%s: error: %s\n" file
            (Costar_core.Types.error_to_string g e)
        | Error msg ->
          incr failures;
          if recover then recover_report i
          else Printf.printf "%s: lexical error: %s\n" file msg)
      results;
    if stats then begin
      let module B = Costar_parallel.Batch in
      let module I = Costar_core.Instr in
      Printf.eprintf
        "batch: %d files (%.2f MB) in %.4fs over %d %s, %d round(s): %.1f \
         files/s, %.2f MB/s\n"
        st.B.st_files
        (float_of_int st.B.st_bytes /. 1e6)
        wall st.B.st_domains
        (if prefork <> None then "worker processes" else "domains")
        st.B.st_rounds
        (float_of_int st.B.st_files /. wall)
        (float_of_int st.B.st_bytes /. wall /. 1e6);
      Printf.eprintf "dfa cache: %d states before, %d after absorption\n"
        st.B.st_states_before st.B.st_states_after;
      Array.iteri
        (fun d ds ->
          let c = ds.B.ds_cache in
          let hits = c.I.trans_hits and misses = c.I.trans_misses in
          let pct =
            if hits + misses = 0 then "-"
            else
              Printf.sprintf "%.1f%% hit"
                (100. *. float_of_int hits /. float_of_int (hits + misses))
          in
          Printf.eprintf
            "domain %d: %d files, %.2f MB, %d new states; dfa transitions \
             %d hits / %d misses (%s)\n"
            d ds.B.ds_files
            (float_of_int ds.B.ds_bytes /. 1e6)
            ds.B.ds_new_states hits misses pct)
        st.B.st_per_domain
    end;
    if !failures > 0 then exit 1
  in
  let term =
    Term.(
      const run $ lang_arg $ paths_arg $ list_arg $ domains_arg $ round_arg
      $ image_arg $ prefork_arg $ quiet_arg $ stats_arg $ recover_arg)
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Parse a corpus of files in parallel across OCaml domains, sharing \
          a frozen prediction-DFA snapshot (per-file verdicts; exit 1 if \
          any file fails).  With $(b,--recover), failing files get a \
          sequential second pass through the error-recovery engine and \
          report full coded diagnostics instead of the first error only.")
    term

(* --- gen ---------------------------------------------------------------- *)

let gen_cmd =
  let size_arg =
    Arg.(value & opt int 100 & info [ "size" ] ~docv:"N" ~doc:"Target size.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let run lang size seed =
    let name =
      match lang with
      | Some n -> n
      | None ->
        prerr_endline "costar gen: --lang is required";
        exit 1
    in
    let l = or_die (find_lang name) in
    print_string (Costar_langs.Lang.generate l ~seed ~size)
  in
  let term = Term.(const run $ lang_arg $ size_arg $ seed_arg) in
  Cmd.v
    (Cmd.info "gen" ~doc:"Emit a synthetic corpus file for a language.")
    term

(* --- sample ------------------------------------------------------------- *)

let sample_cmd =
  let count_arg =
    Arg.(value & opt int 5 & info [ "n" ] ~docv:"N" ~doc:"Number of sentences.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"S" ~doc:"Random seed.")
  in
  let run lang grammar start count seed =
    let g, _ = resolve_source lang grammar start in
    let rand = Rng.of_seed seed in
    let anl = Analysis.make g in
    (* Sampling is total on productive grammars (shortest-derivation
       fallback), so [count] requests always yield [count] sentences —
       or a hard error when the start symbol derives no word at all. *)
    for _ = 1 to count do
      match Sample.sentence ~analysis:anl g rand with
      | Some w -> print_endline (String.concat " " w)
      | None ->
        prerr_endline
          "costar sample: the start symbol derives no terminal word";
        exit 1
    done
  in
  let term =
    Term.(const run $ lang_arg $ grammar_arg $ start_arg $ count_arg $ seed_arg)
  in
  Cmd.v
    (Cmd.info "sample" ~doc:"Sample random sentences from a grammar.")
    term

(* --- cover -------------------------------------------------------------- *)

module Cover = Costar_cover.Cover
module Witness = Costar_cover.Witness
module Diff = Costar_cover.Diff
module Mutate = Costar_cover.Mutate

let cover_cmd =
  let mutate_arg =
    Arg.(
      value
      & opt int 0
      & info [ "mutate" ] ~docv:"N"
          ~doc:
            "With $(b,--diff): derive N deterministic mutants of the corpus \
             inputs (byte flips/inserts/deletes, token \
             deletes/dups/swaps, truncations; seeded, reproducible) and \
             gate the error-recovery engine on each — no exception, \
             strict termination-measure decrease (no hang), at least one \
             coded diagnostic per rejected mutant, and accept/reject \
             agreement with the plain parser.  Any violation exits 3.")
  in
  let seed_arg =
    Arg.(
      value & opt int 0
      & info [ "seed" ] ~docv:"S" ~doc:"Mutation seed (default 0).")
  in
  let corpus_arg =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"CORPUS"
          ~doc:
            "Input files or directories to run through the instrumented \
             pipeline before reporting (the report then shows corpus \
             residue).")
  in
  let close_arg =
    Arg.(
      value & flag
      & info [ "close" ]
          ~doc:
            "Generate a witness sentence per uncovered-but-reachable \
             target and run it, closing the universe.")
  in
  let diff_arg =
    Arg.(
      value & flag
      & info [ "diff" ]
          ~doc:
            "Differentially check every token sentence (corpus and \
             generated) across the core, Turbo, and Earley engines, with \
             the §4 termination-measure and diagnostic-position \
             obligations.  Any disagreement exits 3.")
  in
  (* One coverage line per target kind, fixed field positions so CI can
     gate with awk: `coverage <kind> <covered>/<coverable> <pct> <dead>`. *)
  let kind_slug = function
    | Cover.K_prod -> "productions"
    | Cover.K_decision -> "decisions"
    | Cover.K_edge -> "decision-edges"
    | Cover.K_lex -> "lexer-transitions"
  in
  let pct (s : Cover.summary) =
    if s.Cover.coverable = 0 then 100.0
    else 100.0 *. float_of_int s.Cover.covered /. float_of_int s.Cover.coverable
  in
  let corpus_files paths =
    List.concat_map
      (fun path ->
        if Sys.is_directory path then
          Sys.readdir path |> Array.to_list |> List.sort compare
          |> List.filter_map (fun f ->
                 let p = Filename.concat path f in
                 if Sys.is_directory p then None else Some p)
        else [ path ])
      paths
  in
  let run lang grammar lexer start corpus close diff mutate seed format
      max_severity max_warnings =
    let g, l = resolve_source lang grammar start in
    let scanner =
      match l, lexer with
      | Some l, _ -> Costar_langs.Lang.scanner l
      | None, Some path ->
        Some (or_die (Costar_lex.Spec.scanner_of_string (read_file path)))
      | None, None -> None
    in
    let t = Cover.make ?scanner g in
    (* Corpus pass: every input through the instrumented parser (and, at
       byte level, the lexer replay). *)
    let corpus_toks =
      List.map
        (fun path ->
          let text = read_file path in
          let toks = or_die (tokens_of_input ?lexer g l text) in
          ignore (Cover.mark_tokens t toks);
          if scanner <> None then ignore (Cover.mark_bytes t text);
          (path, toks))
        (corpus_files corpus)
    in
    (* Close pass: a generated sentence per remaining uncovered target. *)
    let generated = if close then Witness.close t else [] in
    (* Differential pass over everything token-level we ran — including the
       error-recovery lane (conservative on clean input, productive and
       measure-verified on rejects). *)
    let diff_failures = ref 0 in
    let diff_results = ref [] in
    let eng = lazy (R.make (P.make g)) in
    if diff then begin
      let turbo = Costar_turbo.Turbo.create g in
      let check label toks =
        match Diff.run ~turbo ~recover:(Lazy.force eng) g toks with
        | Ok () -> ()
        | Error msg ->
          incr diff_failures;
          diff_results := (label, msg) :: !diff_results
      in
      List.iter (fun (path, toks) -> check path toks) corpus_toks;
      List.iter
        (fun (w : Witness.generated) ->
          match w.Witness.tokens with
          | Some terms ->
            check w.Witness.label (Costar_predict_analysis.Analyze.tokens_of_terms g terms)
          | None -> ())
        generated
    end;
    (* Mutation fuzz gate: deterministic mutants of the corpus, each driven
       through the plain parser and the recovery engine. *)
    let mutants_total = ref 0 in
    let mutants_rejected = ref 0 in
    let mutant_results = ref [] in
    if diff && mutate > 0 then begin
      let seeds =
        List.map (fun (path, toks) -> (path, read_file path, toks)) corpus_toks
        @ List.filter_map
            (fun (w : Witness.generated) ->
              match w.Witness.tokens with
              | Some terms ->
                Some
                  ( w.Witness.label, "",
                    Costar_predict_analysis.Analyze.tokens_of_terms g terms )
              | None -> None)
            generated
      in
      match seeds with
      | [] ->
        prerr_endline
          "costar cover: --mutate needs corpus inputs (or --close witnesses)";
        exit 2
      | _ ->
        let seed_arr = Array.of_list seeds in
        let n_seeds = Array.length seed_arr in
        let p = R.parser_of (Lazy.force eng) in
        let fail label msg =
          incr diff_failures;
          mutant_results := (label, msg) :: !mutant_results
        in
        let gate label toks' =
          let w' = Word.of_tokens toks' in
          match R.run_word ~verify_measure:true (Lazy.force eng) w' with
          | exception e ->
            fail label ("recovery engine raised: " ^ Printexc.to_string e)
          | o -> (
            match (P.run_word p w', o.R.verdict, o.R.events) with
            | (P.Unique _ | P.Ambig _), (R.Recovered _ | R.Recovered_ambig _), []
              ->
              ()
            | ( P.Reject _,
                (R.Recovered t | R.Recovered_ambig t),
                (_ :: _ as evs) ) ->
              incr mutants_rejected;
              if not (Tree.has_errors t) then
                fail label "rejected mutant: partial tree has no error nodes"
              else if
                List.exists
                  (fun (e : R.event) -> e.R.diag.D.message = "")
                  evs
              then fail label "rejected mutant: empty diagnostic message"
            | P.Error _, R.Fatal _, _ -> ()
            | plain, v, evs ->
              let plain_kind =
                match plain with
                | P.Unique _ -> "Unique"
                | P.Ambig _ -> "Ambig"
                | P.Reject _ -> "Reject"
                | P.Error _ -> "Error"
              in
              let v_kind =
                match v with
                | R.Recovered _ -> "Recovered"
                | R.Recovered_ambig _ -> "Recovered_ambig"
                | R.Fatal _ -> "Fatal"
              in
              fail label
                (Printf.sprintf
                   "accept/reject disagreement: plain %s, recovery %s with \
                    %d events"
                   plain_kind v_kind (List.length evs)))
        in
        for k = 0 to mutate - 1 do
          let base, source, toks = seed_arr.(k mod n_seeds) in
          let rng = Rng.split seed k in
          incr mutants_total;
          match Mutate.derive rng ~source ~tokens:toks with
          | Mutate.Source (s, edit) -> (
            let label =
              Printf.sprintf "%s#%d (%s)" base k (Mutate.edit_to_string edit)
            in
            match tokens_of_input ?lexer g l s with
            | Error msg ->
              (* Lexical rejection: the P004 path must still produce a
                 well-formed diagnostic. *)
              incr mutants_rejected;
              if (R.lex_diag msg).D.message = "" then
                fail label "lexically rejected mutant: empty diagnostic"
            | Ok toks' -> gate label toks')
          | Mutate.Tokens (toks', edit) ->
            gate
              (Printf.sprintf "%s#%d (%s)" base k (Mutate.edit_to_string edit))
              toks'
        done
    end;
    let file =
      match grammar with Some p -> Some p | None -> Option.map (fun _ -> "<builtin>") lang
    in
    let diags =
      List.stable_sort Costar_lint.Diagnostic.compare
        (Cover.dead_diags ?file t @ Witness.residual_diags ?file t)
    in
    let summary = Cover.summary t in
    (match format with
    | `Text ->
      List.iter
        (fun (k, s) ->
          Printf.printf "coverage %s %d/%d %.1f %d\n" (kind_slug k)
            s.Cover.covered s.Cover.coverable (pct s) s.Cover.dead)
        summary;
      List.iter
        (fun (w : Witness.generated) ->
          Printf.printf "close: %s\n" w.Witness.label;
          (match w.Witness.tokens with
          | Some terms ->
            Printf.printf "  tokens: %s\n"
              (String.concat " "
                 (List.map (Names.terminal g) terms))
          | None -> ());
          match w.Witness.bytes with
          | Some b -> Printf.printf "  bytes: %S\n" b
          | None -> ())
        generated;
      if diff then begin
        if !diff_results = [] then
          Printf.printf "diff ok %d\n"
            (List.length corpus_toks
            + List.length
                (List.filter (fun w -> w.Witness.tokens <> None) generated))
        else
          List.iter
            (fun (label, msg) -> Printf.printf "diff FAIL %s: %s\n" label msg)
            (List.rev !diff_results);
        (* Fixed fields for CI gating:
           `mutants ok <total> <rejected>` or one FAIL line per violation. *)
        if mutate > 0 then
          if !mutant_results = [] then
            Printf.printf "mutants ok %d %d\n" !mutants_total !mutants_rejected
          else
            List.iter
              (fun (label, msg) ->
                Printf.printf "mutant FAIL %s: %s\n" label msg)
              (List.rev !mutant_results)
      end;
      if diags <> [] then print_newline ();
      print_string (Render.text diags)
    | `Json ->
      let open Costar_lint.Json_out in
      print_string
        (to_string
           (Obj
              [
                ("version", Int 1);
                ( "coverage",
                  List
                    (List.map
                       (fun (k, s) ->
                         Obj
                           [
                             ("kind", String (kind_slug k));
                             ("covered", Int s.Cover.covered);
                             ("coverable", Int s.Cover.coverable);
                             ("dead", Int s.Cover.dead);
                           ])
                       summary) );
                ( "generated",
                  List
                    (List.map
                       (fun (w : Witness.generated) ->
                         Obj
                           ([ ("target", String w.Witness.label) ]
                           @ (match w.Witness.tokens with
                             | Some terms ->
                               [
                                 ( "tokens",
                                   List
                                     (List.map
                                        (fun a -> String (Names.terminal g a))
                                        terms) );
                               ]
                             | None -> [])
                           @
                           match w.Witness.bytes with
                           | Some b -> [ ("bytes", String b) ]
                           | None -> []))
                       generated) );
                ( "diff_failures",
                  List
                    (List.map
                       (fun (label, msg) ->
                         Obj
                           [ ("input", String label); ("error", String msg) ])
                       (List.rev !diff_results)) );
                ( "mutants",
                  Obj
                    [
                      ("total", Int !mutants_total);
                      ("rejected", Int !mutants_rejected);
                      ( "failures",
                        List
                          (List.map
                             (fun (label, msg) ->
                               Obj
                                 [
                                   ("input", String label);
                                   ("error", String msg);
                                 ])
                             (List.rev !mutant_results)) );
                    ] );
                ( "diagnostics",
                  List (List.map Costar_lint.Render.json_of_diag diags) );
              ])
        ^ "\n")
    | `Sarif -> print_string (Lint.sarif ~tool_version diags));
    if !diff_failures > 0 then exit 3;
    exit (Lint.exit_code ~max_severity ~max_warnings diags)
  in
  let term =
    Term.(
      const run $ lang_arg $ grammar_arg $ lexer_arg $ start_arg $ corpus_arg
      $ close_arg $ diff_arg $ mutate_arg $ seed_arg $ diag_format_arg
      $ max_severity_arg ~default:Lint.Gate_error
      $ max_warnings_arg)
  in
  Cmd.v
    (Cmd.info "cover"
       ~doc:
         "Decision-coverage analysis: the universe of productions, SLL \
          decisions, cached-DFA edges, and lexer-class transitions, with \
          statically dead targets flagged (C001-C004), corpus residue \
          measured, and --close generating a witness sentence per \
          uncovered-but-reachable target.  --diff differentially checks \
          every sentence across the core, Turbo, and Earley engines.")
    term

let () =
  let info =
    Cmd.info "costar" ~version:"1.0.0"
      ~doc:"A verified-style ALL(*) parser toolkit (CoStar reproduction)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; batch_cmd; check_cmd; lint_cmd; analyze_cmd;
            tables_cmd; atn_cmd; lex_cmd; gen_cmd; sample_cmd; cover_cmd;
          ]))
