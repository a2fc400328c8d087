(* Rendering for `costar analyze`: the static prediction-analysis report,
   as human-readable text or as stable JSON (golden-tested in test/lint). *)

open Costar_grammar
module A = Costar_predict_analysis.Analyze
module Types = Costar_core.Types
module Cache = Costar_core.Cache

let error_string g = function
  | Types.Left_recursive x ->
    Printf.sprintf "left recursion on `%s`" (Names.nonterminal g x)
  | Types.Invalid_state s -> Printf.sprintf "invalid state: %s" s

let production_string g ix =
  Fmt.str "%a" (Grammar.pp_production g) (Grammar.prod g ix)

let conflict_line g (c : A.conflict) =
  let what =
    match c.A.ambiguous_word with
    | Some w ->
      Printf.sprintf "ambiguous sentence `%s` (Earley-confirmed)"
        (A.witness_string g w)
    | None ->
      Printf.sprintf "collide after `%s`%s"
        (A.witness_string g c.A.witness)
        (if c.A.at_eof then " (viable to end of input)" else "")
  in
  Printf.sprintf "    %s  /  %s: %s"
    (production_string g (fst c.A.alts))
    (production_string g (snd c.A.alts))
    what

let decision_lines g (d : A.decision) =
  let head =
    match d.A.error with
    | Some e ->
      Printf.sprintf "  %s: not analyzable (%s)"
        (Names.nonterminal g d.A.nt)
        (error_string g e)
    | None ->
      let flags =
        (if A.ll_fallback_possible d then [ "LL fallback possible" ] else [])
        @ (if d.A.uses_stable_return then [ "stable-return fork" ] else [])
        @ (if d.A.truncated then [ "state budget hit" ] else [])
      in
      Printf.sprintf "  %s: %s, %d alternatives, %d DFA states%s"
        (Names.nonterminal g d.A.nt)
        (A.lookahead_to_string d.A.lookahead)
        d.A.n_alts d.A.states
        (match flags with
        | [] -> ""
        | fs -> " [" ^ String.concat "; " fs ^ "]")
  in
  head :: (if d.A.error = None then List.map (conflict_line g) d.A.conflicts
           else [])

let text (r : A.t) =
  let g = r.A.g in
  let header =
    Printf.sprintf
      "prediction analysis of `%s`: %d decision point%s (lookahead bound k \
       <= %d)"
      (Names.nonterminal g (Grammar.start g))
      (List.length r.A.decisions)
      (if List.length r.A.decisions = 1 then "" else "s")
      r.A.k_bound
  in
  let footer =
    Printf.sprintf "analysis DFA cache: %d states, %d transitions"
      (Cache.num_states r.A.cache)
      (Cache.num_transitions r.A.cache)
  in
  String.concat "\n"
    ((header :: List.concat_map (decision_lines g) r.A.decisions) @ [ footer ])
  ^ "\n"

let json_of_lookahead = function
  | A.Sll_k k -> Json_out.(Obj [ ("kind", String "sll_k"); ("k", Int k) ])
  | A.Beyond k -> Json_out.(Obj [ ("kind", String "beyond"); ("k", Int k) ])
  | A.Cyclic -> Json_out.(Obj [ ("kind", String "cyclic") ])
  | A.Ambiguous -> Json_out.(Obj [ ("kind", String "ambiguous") ])

let json_of_conflict g (c : A.conflict) =
  let open Json_out in
  Obj
    [
      ("alts", List [ Int (fst c.A.alts); Int (snd c.A.alts) ]);
      ( "productions",
        List
          [
            String (production_string g (fst c.A.alts));
            String (production_string g (snd c.A.alts));
          ] );
      ( "witness",
        List
          (List.map
             (fun a -> String (Names.terminal g a))
             c.A.witness) );
      ("at_eof", Bool c.A.at_eof);
      ( "ambiguous_word",
        match c.A.ambiguous_word with
        | None -> Null
        | Some w ->
          List (List.map (fun a -> String (Names.terminal g a)) w) );
    ]

let json_of_decision g (d : A.decision) =
  let open Json_out in
  Obj
    [
      ("nonterminal", String (Names.nonterminal g d.A.nt));
      ("alternatives", Int d.A.n_alts);
      ( "lookahead",
        match d.A.error with
        | Some _ -> Null
        | None -> json_of_lookahead d.A.lookahead );
      ("ll_fallback_possible", Bool (A.ll_fallback_possible d));
      ("uses_stable_return", Bool d.A.uses_stable_return);
      ("states", Int d.A.states);
      ("truncated", Bool d.A.truncated);
      ( "error",
        match d.A.error with
        | None -> Null
        | Some e -> String (error_string g e) );
      ("conflicts", List (List.map (json_of_conflict g) d.A.conflicts));
    ]

let json (r : A.t) =
  let g = r.A.g in
  let open Json_out in
  to_string
    (Obj
       [
         ("version", Int 1);
         ("k_bound", Int r.A.k_bound);
         ( "grammar",
           Obj
             [
               ( "start",
                 String (Names.nonterminal g (Grammar.start g)) );
               ("nonterminals", Int (Grammar.num_nonterminals g));
               ("terminals", Int (Grammar.num_terminals g));
               ("productions", Int (Grammar.num_productions g));
               ("fingerprint", String (Grammar.fingerprint g));
             ] );
         ("decisions", List (List.map (json_of_decision g) r.A.decisions));
         ( "cache",
           Obj
             [
               ("states", Int (Cache.num_states r.A.cache));
               ("transitions", Int (Cache.num_transitions r.A.cache));
             ] );
       ])
  ^ "\n"
