(* Dataflow-backed checks (F-codes), built on the worklist engine of
   Costar_grammar.Analysis.  Where the G-codes classify whole nonterminals
   (reachable, productive, LL(1)-conflicting), these localize defects to a
   production or a lexer rule and attach the engine's witness derivations —
   the chain of facts that first proved the defect — as notes.

   F001–F003 run over the grammar alone (same ctx as Rules_grammar);
   F004/F005 are the cross-layer grammar<->lexer checks: F004 asks the
   compiled lexer DFA the emptiness question "is any word mapped to this
   terminal's rule?" (strictly stronger than L003's name lookup: a rule can
   exist and still be dead because earlier rules shadow it everywhere), and
   F005 asks the grammar dataflow whether a lexer rule's terminal can ever
   be consumed (it exists, but only unreachable productions mention it). *)

open Costar_grammar
open Costar_grammar.Symbols
module D = Diagnostic
module Loc = Costar_grammar.Loc
module Spec = Costar_lex.Spec
module Scanner = Costar_lex.Scanner

(* Witness chains can be long in deep grammars; keep notes readable. *)
let clip_steps ?(max = 5) label steps =
  let n = List.length steps in
  let shown = List.filteri (fun i _ -> i < max) steps in
  let body = String.concat ", then " shown in
  if n > max then
    Printf.sprintf "%s: %s … (%d more steps)" label body (n - max)
  else Printf.sprintf "%s: %s" label body

(* Alternative number of a production within its own nonterminal (the
   production's [ix] is global). *)
let alt_ix g (p : Grammar.production) =
  let rec go i = function
    | [] -> p.ix
    | ix :: rest -> if ix = p.ix then i else go (i + 1) rest
  in
  go 0 (Grammar.prods_of g p.lhs)

let terminals g set =
  Bitset.elements set
  |> List.filteri (fun i _ -> i < 4)
  |> List.map (fun a -> "'" ^ Names.terminal g a ^ "'")
  |> String.concat ", "

(* F001: a production of an otherwise healthy nonterminal that can never be
   used, because its right-hand side contains an unproductive nonterminal.
   G002 already flags the unproductive nonterminal itself; this localizes
   the poisoned alternatives whose lhs *does* have working alternatives and
   would otherwise look fine. *)
let unusable_production (ctx : Rules_grammar.ctx) =
  let g = ctx.Rules_grammar.g and anl = ctx.Rules_grammar.anl in
  Array.to_list (Grammar.prods g)
  |> List.filter_map (fun (p : Grammar.production) ->
         if not (Analysis.productive anl p.lhs) then None
         else
           let dead =
             List.find_opt
               (function
                 | NT y -> not (Analysis.productive anl y)
                 | T _ -> false)
               p.rhs
           in
           match dead with
           | Some (NT y) ->
             Some
               (Rules_grammar.diag ctx ~severity:D.Warning ~x:p.lhs
                  ~extra_notes:
                    [
                      Fmt.str "alternative: %a" (Grammar.pp_production g) p;
                      Printf.sprintf
                        "`%s` derives no terminal string (G002), so this \
                         alternative matches no input"
                        (Names.nonterminal g y);
                    ]
                  "F001"
                  (Printf.sprintf
                     "alternative %d of `%s` is unusable: it contains the \
                      unproductive nonterminal `%s`"
                     (alt_ix g p)
                     (Names.nonterminal g p.lhs)
                     (Names.nonterminal g y)))
           | _ -> None)

(* F002: nullable-prefix shadowing.  In [lhs -> … N rest] with N nullable,
   a lookahead token in FIRST(N) ∩ FIRST(rest · FOLLOW(lhs)) does not decide
   whether N consumes it or is skipped — the prediction DFA must look past
   it.  Harmless for correctness under ALL(star) (hence Info), but each site is
   lookahead the parser pays for; synthesized loop nonterminals are skipped
   because ?/*/+ desugaring creates exactly this shape by design. *)
let nullable_shadowing (ctx : Rules_grammar.ctx) =
  let g = ctx.Rules_grammar.g and anl = ctx.Rules_grammar.anl in
  let acc = ref [] in
  Array.iter
    (fun (p : Grammar.production) ->
      let rec walk before = function
        | [] -> ()
        | (T _ as s) :: rest -> walk (s :: before) rest
        | (NT y as s) :: rest ->
          if
            Analysis.nullable anl y
            && ctx.Rules_grammar.describe y = None
            && Analysis.reachable anl p.lhs
          then begin
            let after = Analysis.first_seq anl rest in
            let cont =
              if Analysis.nullable_seq anl rest then
                Bitset.union after (Analysis.follow anl p.lhs)
              else after
            in
            let overlap = Bitset.inter (Analysis.first anl y) cont in
            if not (Bitset.is_empty overlap) then
              acc :=
                Rules_grammar.diag ctx ~severity:D.Info ~x:p.lhs
                  ~extra_notes:
                    [
                      Fmt.str "alternative: %a" (Grammar.pp_production g) p;
                      Printf.sprintf
                        "on %s, prediction cannot tell `%s` consuming the \
                         token from `%s` deriving ε and the token belonging \
                         to what follows"
                        (terminals g overlap)
                        (Names.nonterminal g y)
                        (Names.nonterminal g y);
                    ]
                  "F002"
                  (Printf.sprintf
                     "nullable `%s` in alternative %d of `%s` is shadowed \
                      by its right context on %s"
                     (Names.nonterminal g y) (alt_ix g p)
                     (Names.nonterminal g p.lhs)
                     (terminals g overlap))
                :: !acc
          end;
          walk (s :: before) rest
      in
      walk [] p.rhs)
    (Grammar.prods g);
  List.rev !acc

(* F003: FIRST/FOLLOW overlap on a nullable nonterminal, with the full
   justification chains.  G005 reports the same situation per LL(1) decision
   table cell; this one explains *why* the overlapping terminal is in both
   sets, using the dataflow engine's witness derivations. *)
let follow_conflict_witness (ctx : Rules_grammar.ctx) =
  let g = ctx.Rules_grammar.g and anl = ctx.Rules_grammar.anl in
  let acc = ref [] in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    if
      Analysis.nullable anl x
      && Analysis.reachable anl x
      && ctx.Rules_grammar.describe x = None
    then begin
      let overlap = Bitset.inter (Analysis.first anl x) (Analysis.follow anl x) in
      match Bitset.elements overlap with
      | [] -> ()
      | a :: _ ->
        let notes =
          List.concat
            [
              (match Analysis.nullable_witness anl x with
              | Some steps -> [ clip_steps "why it is nullable" steps ]
              | None -> []);
              (match Analysis.first_witness anl x a with
              | Some steps ->
                [
                  clip_steps
                    (Printf.sprintf "why '%s' starts it" (Names.terminal g a))
                    steps;
                ]
              | None -> []);
              (match Analysis.follow_witness anl x a with
              | Some steps ->
                [
                  clip_steps
                    (Printf.sprintf "why '%s' may follow it"
                       (Names.terminal g a))
                    steps;
                ]
              | None -> []);
            ]
        in
        acc :=
          Rules_grammar.diag ctx ~severity:D.Info ~x ~extra_notes:notes "F003"
            (Printf.sprintf
               "FIRST/FOLLOW overlap on nullable `%s` (%s): one-token \
                lookahead cannot commit to entering or skipping it"
               (Names.nonterminal g x)
               (terminals g overlap))
          :: !acc
    end
  done;
  List.rev !acc

let grammar_rules ctx =
  unusable_production ctx @ nullable_shadowing ctx
  @ follow_conflict_witness ctx

(* --- Cross-layer checks -------------------------------------------------- *)

type xctx = {
  g : Grammar.t;
  anl : Analysis.t;
  span_of_name : string -> Loc.span;  (* grammar-side spans *)
  rules : Spec.srule list;
  grammar_file : string option;
  lexer_file : string option;
}

let rule_name (sr : Spec.srule) = sr.Spec.rule.Scanner.name
let is_skip (sr : Spec.srule) = sr.Spec.rule.Scanner.action = Scanner.Skip

(* The emptiness query: which rule indexes does the combined scanner DFA
   ever map a word to?  Subset construction only creates reachable states,
   so scanning the accept table is exact.  The DFA is returned too, for the
   witness-producing notes below. *)
let live_rule_ixs rules =
  let dfa =
    Costar_lex.Dfa.of_nfa
      (Costar_lex.Nfa.build
         (List.map (fun sr -> sr.Spec.rule.Scanner.re) rules))
  in
  let live = Hashtbl.create 16 in
  for s = 0 to Costar_lex.Dfa.num_states dfa - 1 do
    match Costar_lex.Dfa.accept dfa s with
    | Some ix -> Hashtbl.replace live ix ()
    | None -> ()
  done;
  (dfa, live)

(* The "nearest non-empty sibling" note: the live non-skip rule closest in
   rule order to the dead one, with the shortest lexeme the combined DFA
   actually maps to it ({!Costar_lex.Dfa.rule_witness} — the same DFA
   inversion the coverage generator uses to produce byte-level inputs).
   Shows at a glance what the scanner *does* accept around the hole. *)
let sibling_note dfa indexed ~dead_ix live =
  let cand =
    List.filter (fun (ix, sr) -> Hashtbl.mem live ix && not (is_skip sr))
      indexed
  in
  let by_dist =
    List.sort
      (fun (i, _) (j, _) ->
        compare (abs (i - dead_ix), i) (abs (j - dead_ix), j))
      cand
  in
  match by_dist with
  | [] -> []
  | (ix, sr) :: _ -> (
    match Costar_lex.Dfa.rule_witness dfa ix with
    | Some w ->
      [
        Printf.sprintf "nearest non-empty sibling: rule `%s` matches %S"
          (rule_name sr) w;
      ]
    | None -> [])

(* First production mentioning terminal [a], for a grammar-side span. *)
let use_site g span_of_name a =
  Array.to_list (Grammar.prods g)
  |> List.find_opt (fun (p : Grammar.production) ->
         List.exists (function T b -> b = a | NT _ -> false) p.rhs)
  |> Option.map (fun (p : Grammar.production) ->
         let lhs = Grammar.nonterminal_name g p.lhs in
         (span_of_name lhs, lhs))

(* F004: a grammar terminal no word can ever become.  Either no (non-skip)
   lexer rule carries its name, or rules do but the combined DFA maps every
   word they match to an earlier rule (L002 per rule; this is the
   per-terminal consequence).  Productions using the terminal are unusable,
   so this is an error, like L003. *)
let unproducible_terminal ctx =
  match ctx.rules with
  | [] -> []
  | rules ->
    let dfa, live = live_rule_ixs rules in
    let indexed = List.mapi (fun ix sr -> (ix, sr)) rules in
    let acc = ref [] in
    for a = 0 to Grammar.num_terminals ctx.g - 1 do
      let nm = Grammar.terminal_name ctx.g a in
      let carriers =
        List.filter (fun (_, sr) -> rule_name sr = nm && not (is_skip sr))
          indexed
      in
      let producible =
        List.exists (fun (ix, _) -> Hashtbl.mem live ix) carriers
      in
      if not producible then begin
        let site = use_site ctx.g ctx.span_of_name a in
        let where =
          match site with
          | Some (_, lhs) -> Printf.sprintf " (used in rule `%s`)" lhs
          | None -> ""
        in
        let d =
          match carriers with
          | [] ->
            let span =
              match site with Some (s, _) -> s | None -> Loc.dummy
            in
            D.make ~severity:D.Error ?file:ctx.grammar_file ~span
              ~notes:
                ("no non-skip lexer rule is named after this terminal, so \
                  the scanner DFA maps no input to it"
                :: sibling_note dfa indexed ~dead_ix:0 live)
              "F004"
              (Printf.sprintf
                 "terminal '%s' is unproducible: the compiled lexer DFA \
                  accepts no word for it%s"
                 nm where)
          | (dead_ix, sr) :: _ ->
            D.make ~severity:D.Error ?file:ctx.lexer_file ~span:sr.Spec.span
              ~notes:
                (Printf.sprintf
                   "rule `%s` exists, but every word it matches is claimed \
                    by an earlier rule (L002), so no accepting DFA state \
                    maps to it"
                   nm
                :: sibling_note dfa indexed ~dead_ix live)
              "F004"
              (Printf.sprintf
                 "terminal '%s' is unproducible: the compiled lexer DFA \
                  accepts no word for it%s"
                 nm where)
        in
        acc := d :: !acc
      end
    done;
    List.rev !acc

(* F005: a lexer rule whose terminal the grammar dataflow marks dead — the
   terminal exists (so L004 is silent), but no production of a reachable
   nonterminal mentions it, so no parse can ever consume the token. *)
let dead_terminal_rule ctx =
  let used_reachable = Hashtbl.create 16 in
  Array.iter
    (fun (p : Grammar.production) ->
      if Analysis.reachable ctx.anl p.lhs then
        List.iter
          (function
            | T a -> Hashtbl.replace used_reachable a ()
            | NT _ -> ())
          p.rhs)
    (Grammar.prods ctx.g);
  List.filter_map
    (fun sr ->
      if is_skip sr then None
      else
        match Grammar.terminal_of_name ctx.g (rule_name sr) with
        | None -> None (* L004's case *)
        | Some a ->
          if Hashtbl.mem used_reachable a then None
          else
            Some
              (D.make ~severity:D.Warning ?file:ctx.lexer_file
                 ~span:sr.Spec.span
                 ~notes:
                   [
                     "the terminal exists in the grammar but only \
                      unreachable productions (if any) mention it, so every \
                      token this rule emits is a guaranteed parse error";
                   ]
                 "F005"
                 (Printf.sprintf
                    "lexer rule `%s` produces a terminal the grammar never \
                     consumes from the start symbol"
                    (rule_name sr))))
    ctx.rules

let cross_layer ?grammar_file ?lexer_file (anl, span_of_name) rules =
  let ctx =
    { g = Analysis.grammar anl; anl; span_of_name; rules; grammar_file;
      lexer_file }
  in
  unproducible_terminal ctx @ dead_terminal_rule ctx
