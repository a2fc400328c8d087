(* The worklist dataflow engine of Costar_grammar.Analysis against its
   oracles:

   - differential: every fact agrees with [reference] below, a naive
     transcription of the inductive rules, on the four built-in languages
     and on random grammars (including left-recursive and unproductive
     ones);
   - witnesses: each [*_witness] chain exists exactly when the fact holds,
     the reachability chain links the start symbol to its target, and
     replaying a FIRST justification chain yields a concrete sentence that
     the Earley recognizer accepts from the nonterminal;
   - semantics: FIRST/FOLLOW membership reconfirmed against brute-force
     derivation sampling — every sampled sentence's first terminal is in
     FIRST(start), and every adjacent pair inside a sampled sentential
     form respects FOLLOW. *)

open Costar_grammar
open Costar_grammar.Symbols

let check = Alcotest.(check bool)

(* The reference: the inductive rules of NULLABLE / FIRST / FOLLOW /
   end-of-input follow / REACHABLE / PRODUCTIVE, each transcribed as
   written and applied to every production until nothing changes.
   Deliberately naive (Int_set, whole-grammar passes) and independent of
   Analysis.

     x -> α, every symbol of α nullable               ⟹ x nullable
     x -> α, every symbol of α productive or terminal ⟹ x productive
     x -> β a γ, β nullable                           ⟹ a ∈ FIRST(x)
     x -> β y γ, β nullable                           ⟹ FIRST(y) ⊆ FIRST(x)
     y -> α x β                                       ⟹ FIRST(β) ⊆ FOLLOW(x)
     y -> α x β, β nullable                           ⟹ FOLLOW(y) ⊆ FOLLOW(x)
     y -> α x β, β nullable, end may follow y         ⟹ end may follow x
     y -> α x β, y reachable                          ⟹ x reachable
   with end-of-input following, and reachability of, the start symbol as
   the axioms. *)
type reference = {
  nullable : bool array;
  productive : bool array;
  first : Int_set.t array;
  follow : Int_set.t array;
  ends : bool array;
  reachable : bool array;
}

let reference g =
  let n = Grammar.num_nonterminals g in
  let r =
    {
      nullable = Array.make n false;
      productive = Array.make n false;
      first = Array.make n Int_set.empty;
      follow = Array.make n Int_set.empty;
      ends = Array.make n false;
      reachable = Array.make n false;
    }
  in
  let changed = ref true in
  let holds facts x =
    if not facts.(x) then begin
      facts.(x) <- true;
      changed := true
    end
  in
  let include_ s sets x =
    if not (Int_set.subset s sets.(x)) then begin
      sets.(x) <- Int_set.union s sets.(x);
      changed := true
    end
  in
  let nullable_seq = List.for_all (function T _ -> false | NT y -> r.nullable.(y)) in
  let rec first_seq = function
    | [] -> Int_set.empty
    | T a :: _ -> Int_set.singleton a
    | NT y :: rest ->
      Int_set.union r.first.(y)
        (if r.nullable.(y) then first_seq rest else Int_set.empty)
  in
  holds r.ends (Grammar.start g);
  holds r.reachable (Grammar.start g);
  while !changed do
    changed := false;
    Array.iter
      (fun (p : Grammar.production) ->
        let y = p.lhs in
        if nullable_seq p.rhs then holds r.nullable y;
        if List.for_all (function T _ -> true | NT z -> r.productive.(z)) p.rhs
        then holds r.productive y;
        include_ (first_seq p.rhs) r.first y;
        let rec occurrences = function
          | [] -> ()
          | T _ :: beta -> occurrences beta
          | NT x :: beta ->
            include_ (first_seq beta) r.follow x;
            if nullable_seq beta then begin
              include_ r.follow.(y) r.follow x;
              if r.ends.(y) then holds r.ends x
            end;
            if r.reachable.(y) then holds r.reachable x;
            occurrences beta
        in
        occurrences p.rhs)
      (Grammar.prods g)
  done;
  r

let set_to_string g s =
  "{ " ^ String.concat " " (List.map (Names.terminal g) s) ^ " }"

(* Every fact of the analysis equals the corresponding fact of the
   reference; raises on the first mismatch. *)
let agree g =
  let anl = Analysis.make g in
  let r = reference g in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    let expect what a b =
      if a <> b then
        Alcotest.failf "%s mismatch on `%s`" what (Names.nonterminal g x)
    in
    let expect_set what got want =
      let got = Bitset.elements got and want = Int_set.elements want in
      if got <> want then
        Alcotest.failf "%s mismatch on `%s`: analysis %s vs reference %s" what
          (Names.nonterminal g x) (set_to_string g got) (set_to_string g want)
    in
    expect "nullable" (Analysis.nullable anl x) r.nullable.(x);
    expect "follow_end" (Analysis.follow_end anl x) r.ends.(x);
    expect "reachable" (Analysis.reachable anl x) r.reachable.(x);
    expect "productive" (Analysis.productive anl x) r.productive.(x);
    expect_set "first" (Analysis.first anl x) r.first.(x);
    expect_set "follow" (Analysis.follow anl x) r.follow.(x);
    expect_set "sync" (Analysis.sync anl x)
      (Int_set.union r.first.(x) r.follow.(x))
  done;
  anl

let test_langs_differential () =
  List.iter
    (fun name ->
      match Costar_langs.Registry.find name with
      | None -> Alcotest.failf "missing built-in language %s" name
      | Some l -> ignore (agree (Costar_langs.Lang.grammar l)))
    [ "json"; "xml"; "dot"; "minipy" ]

(* The fixture of test_analysis.ml: nullable chains, FOLLOW through
   nullable suffixes, an unreachable-free grammar. *)
let fixture =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.n "B"; Grammar.t "z" ] ]);
      ("A", [ []; [ Grammar.t "a" ] ]);
      ("B", [ [ Grammar.n "A"; Grammar.t "b" ]; [ Grammar.n "C" ] ]);
      ("C", [ [ Grammar.t "c"; Grammar.n "C" ]; [] ]);
    ]

let test_fixture_facts () =
  let anl = agree fixture in
  let tm name = Option.get (Grammar.terminal_of_name fixture name) in
  let nt name = Option.get (Grammar.nonterminal_of_name fixture name) in
  check "A nullable" true (Analysis.nullable anl (nt "A"));
  check "S not nullable" false (Analysis.nullable anl (nt "S"));
  (* sync(C) = FIRST(C) ∪ FOLLOW(C) = {c} ∪ {z} *)
  check "sync C" true
    (Bitset.elements (Analysis.sync anl (nt "C"))
    = List.sort compare [ tm "c"; tm "z" ])

let prop_random_differential =
  QCheck.Test.make ~count:500 ~name:"flow = iterated analysis (random)"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      ignore (agree g);
      true)

(* A reachability chain links the start symbol to [x]: the first step is a
   production of the start symbol, each step's marked symbol is the lhs of
   the next step's production, and the last step's marked symbol is [x]
   (the empty chain is the start symbol's own). *)
let chain_links g x chain =
  let lhs (ix, _) = (Grammar.prod g ix).Grammar.lhs in
  let marked (ix, pos) = List.nth_opt (Grammar.prod g ix).Grammar.rhs pos in
  let rec links = function
    | [] -> x = Grammar.start g
    | [ last ] -> marked last = Some (NT x)
    | step :: (next :: _ as rest) ->
      marked step = Some (NT (lhs next)) && links rest
  in
  (match chain with [] -> true | step :: _ -> lhs step = Grammar.start g)
  && links chain

(* Witness chains exist exactly when the fact holds, and name only real
   productions of the grammar. *)
let prop_witness_presence =
  QCheck.Test.make ~count:500 ~name:"witnesses iff facts"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      let anl = Analysis.make g in
      let ok = ref true in
      for x = 0 to Grammar.num_nonterminals g - 1 do
        ok :=
          !ok
          && Option.is_some (Analysis.nullable_witness anl x)
             = Analysis.nullable anl x
          && Option.is_some (Analysis.reachable_witness anl x)
             = Analysis.reachable anl x
          && Option.is_some (Analysis.productive_witness anl x)
             = Analysis.productive anl x
          && (match Analysis.reachable_chain anl x with
             | None -> not (Analysis.reachable anl x)
             | Some chain -> chain_links g x chain);
        for a = 0 to Grammar.num_terminals g - 1 do
          ok :=
            !ok
            && Option.is_some (Analysis.first_witness anl x a)
               = Bitset.mem (Analysis.first anl x) a
            && Option.is_some (Analysis.follow_witness anl x a)
               = Bitset.mem (Analysis.follow anl x) a
        done
      done;
      !ok)

(* Replaying a FIRST justification chain yields a real sentence: it starts
   with the queried terminal and the Earley recognizer accepts it from the
   queried nonterminal.  (first_word may be None when the completing suffix
   is unproductive; in a fully productive grammar it must exist.) *)
let prop_first_word_earley =
  QCheck.Test.make ~count:200 ~name:"first_word is Earley-accepted"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      let anl = Analysis.make g in
      let all_productive =
        let ok = ref true in
        for x = 0 to Grammar.num_nonterminals g - 1 do
          ok := !ok && Analysis.productive anl x
        done;
        !ok
      in
      let ok = ref true in
      for x = 0 to Grammar.num_nonterminals g - 1 do
        for a = 0 to Grammar.num_terminals g - 1 do
          if Bitset.mem (Analysis.first anl x) a then
            match Analysis.first_word anl x a with
            | None -> if all_productive then ok := false
            | Some w ->
              let starts = match w with b :: _ -> b = a | [] -> false in
              let toks =
                List.map (fun b -> Token.make b (Grammar.terminal_name g b)) w
              in
              ok :=
                !ok && starts
                && Costar_earley.Recognizer.accepts_sym g x toks
        done
      done;
      !ok)

(* Brute-force semantic check of FIRST and FOLLOW: sample leftmost
   derivations; the first terminal of every sampled sentence of [x] is in
   FIRST(x), and in every sampled sentential form, a terminal directly
   following an occurrence of [x] (across a nullable gap) lands in
   FOLLOW(x). *)
let prop_sampled_sentences_respect_first =
  QCheck.Test.make ~count:300 ~name:"sampled sentences start in FIRST(start)"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      let anl = Analysis.make g in
      let rand = Random.State.make [| 42 |] in
      let ok = ref true in
      for _ = 1 to 20 do
        match Util.random_sentence g rand with
        | Some (first :: _) ->
          let a = Option.get (Grammar.terminal_of_name g first) in
          ok := !ok && Bitset.mem (Analysis.first anl (Grammar.start g)) a
        | Some [] | None -> ()
      done;
      !ok)

(* FOLLOW soundness on random sentential forms: expand the start symbol a
   few random steps; wherever ... x γ appears with FIRST(γ) ∋ a directly
   (through nullable prefixes of γ), a must be in FOLLOW(x) — checked for
   the leftmost nonterminal of each form to keep the walk cheap. *)
let prop_sentential_follow =
  QCheck.Test.make ~count:300 ~name:"sentential forms respect FOLLOW"
    (QCheck.make ~print:(Fmt.str "%a" Grammar.pp) Util.gen_grammar)
    (fun g ->
      let anl = Analysis.make g in
      let rand = Random.State.make [| 7 |] in
      let ok = ref true in
      let rec step fuel form =
        if fuel > 0 then begin
          (* Check every NT occurrence against its right context. *)
          let rec scan = function
            | [] -> ()
            | T _ :: rest -> scan rest
            | NT x :: rest ->
              Bitset.iter
                (fun a ->
                  if not (Bitset.mem (Analysis.follow anl x) a) then ok := false)
                (Analysis.first_seq anl rest);
              scan rest
          in
          scan form;
          (* Expand the leftmost nonterminal, if any. *)
          let rec expand before = function
            | [] -> ()
            | T _ :: rest -> expand (before + 1) rest
            | NT x :: _ -> (
              match Grammar.prods_of g x with
              | [] -> ()
              | prods ->
                let ix =
                  List.nth prods (Random.State.int rand (List.length prods))
                in
                let rhs = (Grammar.prod g ix).Grammar.rhs in
                let prefix = List.filteri (fun j _ -> j < before) form in
                let suffix = List.filteri (fun j _ -> j > before) form in
                step (fuel - 1) (prefix @ rhs @ suffix))
          in
          expand 0 form
        end
      in
      for _ = 1 to 5 do
        step 8 [ NT (Grammar.start g) ]
      done;
      !ok)

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_random_differential;
      prop_witness_presence;
      prop_first_word_earley;
      prop_sampled_sentences_respect_first;
      prop_sentential_follow;
    ]

let suite =
  [
    Alcotest.test_case "built-in languages differential" `Quick
      test_langs_differential;
    Alcotest.test_case "fixture facts" `Quick test_fixture_facts;
  ]
  @ props

let () = Alcotest.run "analysis_facts" [ ("flow", suite) ]
