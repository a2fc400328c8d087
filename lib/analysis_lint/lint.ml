module D = Diagnostic
module Loc = Costar_grammar.Loc
module Grammar = Costar_grammar.Grammar
module Analysis = Costar_grammar.Analysis
module Ast = Costar_ebnf.Ast
module Desugar = Costar_ebnf.Desugar
module Spec = Costar_lex.Spec

(* --- Rule registry ------------------------------------------------------ *)

type rule_info = {
  code : string;
  default_severity : D.severity;
  title : string;
}

let registry =
  [
    { code = "G001"; default_severity = D.Warning;
      title = "unreachable nonterminal" };
    { code = "G002"; default_severity = D.Warning;
      title = "unproductive nonterminal (error on the start symbol)" };
    { code = "G003"; default_severity = D.Error;
      title = "left recursion (direct, indirect, or hidden), with cycle \
               witness" };
    { code = "G004"; default_severity = D.Info;
      title = "LL(1) FIRST/FIRST conflict: ALL(*) prediction required" };
    { code = "G005"; default_severity = D.Info;
      title = "LL(1) FIRST/FOLLOW conflict: ALL(*) prediction required" };
    { code = "G006"; default_severity = D.Warning;
      title = "duplicate identical alternatives of one nonterminal" };
    { code = "G007"; default_severity = D.Error;
      title = "nullable cycle: the nonterminal derives itself (infinite \
               ambiguity)" };
    { code = "G008"; default_severity = D.Error;
      title = "reference to an undefined nonterminal" };
    { code = "G009"; default_severity = D.Error;
      title = "duplicate rule definition" };
    { code = "G010"; default_severity = D.Error;
      title = "undefined start symbol / empty grammar" };
    { code = "L001"; default_severity = D.Error;
      title = "lexer rule can match the empty string (scanner livelock)" };
    { code = "L002"; default_severity = D.Warning;
      title = "lexer rule shadowed by earlier rules (never wins)" };
    { code = "L003"; default_severity = D.Error;
      title = "grammar terminal never produced by the lexer" };
    { code = "L004"; default_severity = D.Warning;
      title = "lexer rule emits a token kind unknown to the grammar" };
    { code = "L005"; default_severity = D.Warning;
      title = "duplicate lexer rule name" };
    { code = "A001"; default_severity = D.Info;
      title = "SLL-vs-LL divergence possible: runtime LL fallback reachable" };
    { code = "A002"; default_severity = D.Info;
      title = "decision is not SLL(k) for any k within the analyzed bound, \
               with witness (unbounded-lookahead cost, the regime ALL(*) \
               exists for)" };
    { code = "A003"; default_severity = D.Warning;
      title = "true ambiguity: witness sentence with several parse trees \
               (Earley-confirmed)" };
    { code = "A004"; default_severity = D.Info;
      title = "lookahead-depth report: minimal k for SLL(k) decisions \
               needing more than one token" };
    { code = "F001"; default_severity = D.Warning;
      title = "unusable alternative: right-hand side contains an \
               unproductive nonterminal" };
    { code = "F002"; default_severity = D.Info;
      title = "nullable symbol shadowed by its right context (extra \
               lookahead at this site)" };
    { code = "F003"; default_severity = D.Info;
      title = "FIRST/FOLLOW overlap on a nullable nonterminal, with \
               dataflow witness chains" };
    { code = "F004"; default_severity = D.Error;
      title = "grammar terminal unproducible by the compiled lexer DFA \
               (emptiness query)" };
    { code = "F005"; default_severity = D.Warning;
      title = "lexer rule's terminal is dead in the grammar (no reachable \
               production consumes it)" };
    { code = "C001"; default_severity = D.Warning;
      title = "statically dead production: no successful parse can ever \
               commit to it (unreachable lhs or unproductive rhs)" };
    { code = "C002"; default_severity = D.Info;
      title = "unreachable SLL decision edge: cached lookahead transition \
               no concrete sentence can drive" };
    { code = "C003"; default_severity = D.Info;
      title = "dead lexer-class transition: no accepted lexeme traverses \
               it (every scan taking it must backtrack or fail)" };
    { code = "C004"; default_severity = D.Info;
      title = "ambiguous-only target: every covering sentence is ambiguous \
               and prediction commits to an earlier alternative" };
    (* P-codes: parse-time diagnostics, emitted by `costar parse` and the
       error-recovery engine (lib/recover) rather than static analysis. *)
    { code = "P001"; default_severity = D.Error;
      title = "unexpected token: the parser expected a different terminal \
               (or had finished) at this position" };
    { code = "P002"; default_severity = D.Error;
      title = "unexpected end of input: the parse needed more tokens" };
    { code = "P003"; default_severity = D.Error;
      title = "no viable alternative: ALL(*) prediction rejected every \
               right-hand side of the decision nonterminal" };
    { code = "P004"; default_severity = D.Error;
      title = "lexical error: the scanner could not tokenize the input" };
  ]

let find_rule code = List.find_opt (fun r -> r.code = code) registry

(* --- Desugar errors as diagnostics -------------------------------------- *)

let of_desugar_error ?file (e : Desugar.error) =
  match e with
  | Desugar.Undefined_reference { name; span; in_rule } ->
    D.make ~severity:D.Error ?file ~span "G008"
      (Printf.sprintf "rule `%s` references undefined nonterminal `%s`"
         in_rule name)
  | Desugar.Duplicate_rule { name; span; prev_span } ->
    D.make ~severity:D.Error ?file ~span
      ~notes:
        (if Loc.is_dummy prev_span then []
         else [ Printf.sprintf "first defined at %s" (Loc.to_string prev_span) ])
      "G009"
      (Printf.sprintf "duplicate rule for `%s`" name)
  | Desugar.Undefined_start { start } ->
    D.make ~severity:D.Error ?file "G010"
      (Printf.sprintf "start symbol `%s` is not defined by any rule" start)
  | Desugar.Empty_grammar ->
    D.make ~severity:D.Error ?file "G010" "the grammar has no rules"

(* --- Provenance plumbing ------------------------------------------------ *)

(* Builds the span/description/parent lookups Rules_grammar wants from the
   desugarer's provenance table. *)
let grammar_ctx ?file g (prov : Desugar.provenance) =
  let span_of x =
    match Desugar.origin_of prov (Grammar.nonterminal_name g x) with
    | Some o -> Desugar.origin_span o
    | None -> Loc.dummy
  in
  let describe x =
    match Desugar.origin_of prov (Grammar.nonterminal_name g x) with
    | Some (Desugar.Synthesized { kind; span; in_rule }) ->
      Some
        (Printf.sprintf
           "`%s` was synthesized for the %s subexpression%s in rule `%s`"
           (Grammar.nonterminal_name g x)
           (match kind with
           | "opt" -> "`?`"
           | "star" -> "`*`"
           | "plus" -> "`+`"
           | _ -> "group")
           (if Loc.is_dummy span then ""
            else " at " ^ Loc.to_string span)
           in_rule)
    | _ -> None
  in
  let synth_parent x =
    match Desugar.origin_of prov (Grammar.nonterminal_name g x) with
    | Some (Desugar.Synthesized { in_rule; _ }) ->
      Grammar.nonterminal_of_name g in_rule
    | _ -> None
  in
  Rules_grammar.make_ctx ?file ~span_of ~describe ~synth_parent g

(* --- Entry points ------------------------------------------------------- *)

(* All checks that run over a (desugared or prebuilt) grammar: the hygiene
   rules, the dataflow F-codes, and the prediction-analysis A-codes. *)
let grammar_rules ctx =
  Rules_grammar.all ctx @ Rules_flow.grammar_rules ctx @ Rules_predict.all ctx

(* Lint a prebuilt grammar (no EBNF source, e.g. a built-in language):
   every grammar rule runs, with dummy spans. *)
let lint_prebuilt ?file g =
  List.stable_sort D.compare (grammar_rules (Rules_grammar.make_ctx ?file g))

type input = {
  rules : Ast.rule list option;  (** EBNF source rules *)
  start : string option;  (** defaults to the first rule *)
  grammar_file : string option;
  prebuilt : Grammar.t option;  (** used when [rules] is [None] *)
  lexer : Spec.srule list option;
  lexer_file : string option;
}

let empty_input =
  {
    rules = None;
    start = None;
    grammar_file = None;
    prebuilt = None;
    lexer = None;
    lexer_file = None;
  }

let run input =
  let file = input.grammar_file in
  (* Grammar side: desugar (collecting structured errors) or use the
     prebuilt grammar directly. *)
  let grammar_diags, anl_and_spans =
    match input.rules with
    | Some rules ->
      let start =
        match input.start with
        | Some s -> s
        | None -> (
          match rules with r :: _ -> r.Ast.name | [] -> "")
      in
      (match Desugar.to_grammar_with_provenance ~start rules with
      | Error errs -> (List.map (of_desugar_error ?file) errs, None)
      | Ok (g, prov) ->
        let span_of_name nm =
          match Desugar.origin_of prov nm with
          | Some o -> Desugar.origin_span o
          | None -> Loc.dummy
        in
        let ctx = grammar_ctx ?file g prov in
        (grammar_rules ctx, Some (ctx.Rules_grammar.anl, span_of_name)))
    | None -> (
      match input.prebuilt with
      | Some g ->
        let ctx = Rules_grammar.make_ctx ?file g in
        (grammar_rules ctx, Some (ctx.Rules_grammar.anl, fun _ -> Loc.dummy))
      | None -> ([], None))
  in
  let lexer_diags =
    match input.lexer with
    | None -> []
    | Some rules ->
      Rules_lexer.all
        (Rules_lexer.make_ctx ?file:input.lexer_file
           ?grammar:
             (Option.map
                (fun (anl, spans) -> (Analysis.grammar anl, spans))
                anl_and_spans)
           ?grammar_file:input.grammar_file rules)
  in
  (* Cross-layer dataflow checks need both sides. *)
  let cross_diags =
    match (input.lexer, anl_and_spans) with
    | Some rules, Some gs ->
      Rules_flow.cross_layer ?grammar_file:input.grammar_file
        ?lexer_file:input.lexer_file gs rules
    | _ -> []
  in
  List.stable_sort D.compare (grammar_diags @ lexer_diags @ cross_diags)

(* --- Rendering ---------------------------------------------------------- *)

let sarif ?tool_version ds =
  Sarif.to_string ?tool_version
    (List.map (fun r -> (r.code, r.default_severity, r.title)) registry)
    ds

(* --- Exit-code policy --------------------------------------------------- *)

(* The severity gate shared by `costar lint` and `costar analyze`
   (--max-severity): the most severe diagnostic level tolerated with a zero
   exit.  [Gate_warning] is the historical lint default (errors exit 2,
   warnings beyond --max-warnings exit 1, info free); [Gate_error] is the
   historical analyze default (report only, never fail). *)
type gate = Gate_none | Gate_info | Gate_warning | Gate_error

let gate_of_string = function
  | "none" -> Some Gate_none
  | "info" -> Some Gate_info
  | "warning" -> Some Gate_warning
  | "error" -> Some Gate_error
  | _ -> None

let gate_to_string = function
  | Gate_none -> "none"
  | Gate_info -> "info"
  | Gate_warning -> "warning"
  | Gate_error -> "error"

(* 0 = within the gate, 1 = too many warnings (or any info when the gate is
   [Gate_none]), 2 = errors. *)
let exit_code ?(max_severity = Gate_warning) ?(max_warnings = 0) ds =
  let errors, warnings, infos = Render.summary_counts ds in
  match max_severity with
  | Gate_error -> 0
  | Gate_warning ->
    if errors > 0 then 2 else if warnings > max_warnings then 1 else 0
  | Gate_info -> if errors > 0 then 2 else if warnings > 0 then 1 else 0
  | Gate_none ->
    if errors > 0 then 2 else if warnings > 0 || infos > 0 then 1 else 0
