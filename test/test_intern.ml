(* Tests for the interned prediction engine (hash-consed frames, dense
   config ids, array DFA stepping).  SLL and LL verdicts are checked
   against the Earley recognizer, an independent oracle: at every decision
   of a random grammar, the productions whose right-hand side derives the
   word bound what each verdict may claim.  The memoized closure must
   match the direct one, [Cache.add_trans] must be idempotent, an image
   of an older format version is refused, the first-token decision table
   keeps its bookkeeping through copies, snapshots and images, and its
   static LL(1) entries are exactly what the DFA decides. *)

open Costar_grammar
open Costar_core

let check_int = Alcotest.(check int)

let nt g name =
  match Grammar.nonterminal_of_name g name with
  | Some x -> x
  | None -> Alcotest.failf "unknown nonterminal %s" name

let fig2 =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]);
      ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
    ]

let decision_nts g =
  List.filter
    (fun x -> List.length (Grammar.prods_of g x) > 1)
    (List.init (Grammar.num_nonterminals g) Fun.id)

(* --- Earley-checked prediction ------------------------------------------ *)

(* The productions of [x] whose right-hand side derives [w], by the Earley
   recognizer over [g] extended with one fresh nonterminal per
   production. *)
let deriving_prods g x w =
  let elt = function
    | Symbols.T a -> Grammar.t (Grammar.terminal_name g a)
    | Symbols.NT y -> Grammar.n (Grammar.nonterminal_name g y)
  in
  let rules =
    List.init (Grammar.num_nonterminals g) (fun y ->
        ( Grammar.nonterminal_name g y,
          List.map (List.map elt) (Grammar.rhss_of g y) ))
  in
  let terms = List.init (Grammar.num_terminals g) (Grammar.terminal_name g) in
  List.filter
    (fun ix ->
      let g' =
        Grammar.define ~extra_terminals:terms
          ~start:(Grammar.nonterminal_name g (Grammar.start g))
          (rules @ [ ("rhs'", [ List.map elt (Grammar.prod g ix).Grammar.rhs ]) ])
      in
      Costar_earley.Recognizer.accepts_sym g' (nt g' "rhs'")
        (Grammar.tokens g' w))
    (Grammar.prods_of g x)

(* The grammar-structural specification of prediction at decision [x] for
   the whole word [w] followed by end of input: D, the productions of [x]
   deriving [w].  Each decision also records the interned LL verdict, the
   cold SLL verdict and a warm SLL re-run on the same cache (which takes
   the fast path over the DFA the cold run built). *)
let verdicts g w =
  let word = Word.of_tokens (Grammar.tokens g w) in
  let anl = Analysis.make g in
  let cache = Cache.create anl in
  ( anl,
    List.map
      (fun x ->
        let d = deriving_prods g x w in
        let ll = fst (Ll.predict g anl x [ [] ] word 0) in
        let sll = fst (Sll.predict g anl cache x word 0) in
        let warm = fst (Sll.predict g anl cache x word 0) in
        (x, d, ll, sll, warm))
      (decision_nts g) )

(* LL may answer [Ambig i] only for i in D with |D| >= 2, [Unique i] only
   when D is within {i}, and [Reject] only when D is empty; [Error_pred]
   only on left-recursive grammars. *)
let prop_ll_predict_agrees =
  QCheck.Test.make ~count:500
    ~name:"interned LL predict = structural LL semantics (Earley)"
    Util.arb_grammar_word (fun (g, w) ->
      let left_recursive = Result.is_error (Left_recursion.check g) in
      List.for_all
        (fun (_, d, ll, _, _) ->
          match ll with
          | Types.Ambig_pred i -> List.mem i d && List.length d >= 2
          | Types.Unique_pred i -> List.for_all (( = ) i) d
          | Types.Reject_pred -> d = []
          | Types.Error_pred _ -> left_recursive)
        (snd (verdicts g w)))

(* Both engines stop as soon as the candidates narrow to one, so their
   verdicts are comparable only on derivable words: there, at a decision
   that end of input may follow (where SLL's stack-free context includes
   LL's), SLL's trusted [Unique]/[Reject] must be LL's verdict, which the
   property above bounds by D.  The warm SLL re-run must answer the same
   as the cold one everywhere. *)
let prop_sll_predict_agrees =
  QCheck.Test.make ~count:500
    ~name:"interned SLL predict = structural SLL semantics (Earley)"
    Util.arb_grammar_word (fun (g, w) ->
      let anl, vs = verdicts g w in
      List.for_all
        (fun (x, d, ll, sll, warm) ->
          let sll_ok =
            d = [] || (not (Analysis.follow_end anl x))
            ||
            match sll, ll with
            | Types.Unique_pred i, Types.Unique_pred j -> i = j
            | (Types.Unique_pred _ | Types.Reject_pred), _ -> false
            | (Types.Ambig_pred _ | Types.Error_pred _), _ -> true
          in
          sll_ok && warm = sll)
        vs)

(* --- memoized closure ---------------------------------------------------- *)

let same_closure r1 r2 =
  match r1, r2 with
  | Error e1, Error e2 -> e1 = e2
  | Ok (stable1, forked1), Ok (stable2, forked2) ->
    forked1 = forked2
    && List.equal (fun c1 c2 -> Config.compare_sll c1 c2 = 0) stable1 stable2
  | _ -> false

let prop_closure_and_fork_agree =
  (* The memoized closure, run through one cache shared by every decision,
     must produce the same stable configurations and stable-return fork
     flag as the direct closure — and keep agreeing when the same
     configurations come back under other prediction labels, which hit the
     label-erased memo entries of the first pass. *)
  QCheck.Test.make ~count:500
    ~name:"memoized closure = direct closure"
    (QCheck.make Util.gen_grammar ~print:(Fmt.to_to_string Grammar.pp))
    (fun g ->
      let anl = Analysis.make g in
      let cache = Cache.create anl in
      let relabel cfgs =
        List.map (fun c -> { c with Config.s_pred = c.Config.s_pred + 7 }) cfgs
      in
      List.for_all
        (fun x ->
          let configs = Sll.init_configs g anl x in
          let memoized c = Sll.closure_cached g anl cache c in
          same_closure (Sll.closure g anl configs) (memoized configs)
          && same_closure
               (Sll.closure g anl (relabel configs))
               (memoized (relabel configs)))
        (decision_nts g))

(* --- add_trans idempotency (regression) --------------------------------- *)

let test_add_trans_idempotent () =
  let g = fig2 in
  let anl = Analysis.make g in
  let c = Cache.create anl in
  let intern x =
    match Sll.closure g anl (Sll.init_configs g anl (nt g x)) with
    | Ok (configs, _) -> Cache.intern c configs
    | Error _ -> Alcotest.fail "closure failed"
  in
  let sid0 = intern "S" in
  let sid1 = intern "A" in
  let a = 0 in
  Cache.add_trans c sid0 a sid1;
  check_int "one transition" 1 (Cache.num_transitions c);
  (* Re-adding the same transition must not double-count... *)
  Cache.add_trans c sid0 a sid1;
  check_int "still one transition" 1 (Cache.num_transitions c);
  (* ...nor may a conflicting re-add clobber the recorded successor. *)
  Cache.add_trans c sid0 a sid0;
  check_int "no double count on conflict" 1 (Cache.num_transitions c);
  Alcotest.(check (option int))
    "first successor kept" (Some sid1)
    (Cache.find_trans c sid0 a)

(* --- cache image version (regression) ------------------------------------ *)

(* A cache image whose version word names an older format is refused with
   the version it found and the command that regenerates it. *)
let test_v1_cache_rejected () =
  let g = fig2 in
  let anl = Analysis.make g in
  let fp = Grammar.fingerprint g in
  let b = Bytes.of_string (Cache.image_bytes ~fingerprint:fp (Cache.create anl)) in
  Bytes.set_int32_le b 4 1l;
  match Cache.of_image_bytes ~anl ~fingerprint:fp (Bytes.to_string b) with
  | Ok _ -> Alcotest.fail "v1 cache accepted"
  | Error e ->
    Alcotest.(check bool) "typed version error" true
      (e = Cache.Img_bad_version 1);
    let msg = Cache.image_error_to_string e in
    let contains affix =
      let n = String.length affix in
      let rec go i =
        i + n <= String.length msg && (String.sub msg i n = affix || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "error names the version" true
      (contains "format version 1");
    Alcotest.(check bool) "error says how to regenerate" true
      (contains "costar analyze")

(* --- First-token decision table ------------------------------------------ *)

(* A two-token decision: after 'a' both alternatives are still live, so
   the DFA decides only on the second token and the table never holds an
   entry for it — yet every parse predicts the right branch. *)
let test_two_token_decision_untabled () =
  let g =
    Grammar.define ~start:"S"
      [ ("S", [ [ Grammar.t "a"; Grammar.t "b" ]; [ Grammar.t "a"; Grammar.t "c" ] ]) ]
  in
  let p = Parser.make g in
  let cache = Cache.create (Parser.analysis p) in
  for _ = 1 to 3 do
    List.iter
      (fun second ->
        let w = Word.of_tokens (Grammar.tokens g [ "a"; second ]) in
        match Parser.run_word ~cache p w with
        | Parser.Unique v -> (
          match Tree.view v with
          | Tree.Node (_, [ _; kid ]) -> (
            match Tree.view kid with
            | Tree.Leaf tok ->
              Alcotest.(check string) "branch" second (Token.lexeme tok)
            | _ -> Alcotest.fail "expected a leaf")
          | _ -> Alcotest.fail "expected two children")
        | r -> Alcotest.failf "expected Unique, got %a" (Parser.pp_result g) r)
      [ "b"; "c" ]
  done;
  Alcotest.(check bool) "no tabled production" true
    (Array.for_all (fun e -> e < 0) (Cache.decisions cache));
  check_int "no table hit for S at 'a'" (-2)
    (Cache.decision cache (nt g "S") (Word.of_tokens (Grammar.tokens g [ "a"; "b" ])) 0)

let json_inputs () =
  let l = Costar_langs.Json.lang in
  List.map
    (fun seed ->
      Word.of_buf
        (Costar_langs.Lang.tokenize_buf_exn l
           (Costar_langs.Lang.generate l ~seed ~size:60)))
    [ 1; 2; 3 ]

let warm p cache inputs =
  List.iter (fun w -> ignore (Parser.run_word ~cache p w)) inputs

(* The whole first-token table, static entries and learned ones. *)
let table c = Array.copy (Cache.decisions c)

(* Entries are DFA facts: a copy, a snapshot and an overlay over it all
   answer from the same table.  Json is LL(1) but for a few two-token
   decisions, so what a warm cache adds to the static table is settled
   misses; the comparisons are over the whole table. *)
let test_table_survives_copy_and_overlay () =
  let p = Parser.make (Costar_langs.Lang.grammar Costar_langs.Json.lang) in
  let c = Cache.create (Parser.analysis p) in
  let fresh = table c in
  warm p c (json_inputs ());
  let learned = table c in
  Alcotest.(check bool) "the table learned" true (learned <> fresh);
  let same what c' = Alcotest.(check bool) what true (table c' = learned) in
  same "copy" (Cache.copy c);
  same "overlay over a snapshot" (Cache.overlay (Cache.freeze c));
  (* A copy grows on its own: the original's table is unchanged. *)
  let c' = Cache.copy (Cache.create (Parser.analysis p)) in
  warm p c' (json_inputs ());
  same "relearned copy" c'

(* Images do not store the table: a loaded cache starts with exactly the
   static table a fresh cache has, and learns, from the image's states,
   exactly what the heap cache it was saved from learned. *)
let test_image_relearns_table () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let p = Parser.make g in
  let anl = Parser.analysis p in
  let c = Cache.create anl in
  let fresh = table c in
  let inputs = json_inputs () in
  warm p c inputs;
  Alcotest.(check bool) "the heap cache learned" true (table c <> fresh);
  let fp = Grammar.fingerprint g in
  let file = Filename.temp_file "costar_table" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Cache.save_image ~fingerprint:fp c file;
      List.iter
        (fun (what, load) ->
          match load ~anl ~fingerprint:fp file with
          | Error e -> Alcotest.failf "%s: %s" what (Cache.image_error_to_string e)
          | Ok c' ->
            Alcotest.(check bool) (what ^ " starts with the static table") true
              (table c' = fresh);
            warm p c' inputs;
            Alcotest.(check bool) (what ^ " relearns the same entries") true
              (table c' = table c))
        [ ("load_image", Cache.load_image); ("load_image_heap", Cache.load_image_heap) ])

(* --- Static LL(1) entries ---------------------------------------------- *)

(* The gate, restated from its definition: every nonterminal reachable
   and productive, none left-recursive. *)
let ll1_exact g anl =
  List.for_all
    (fun x -> Analysis.reachable anl x && Analysis.productive anl x)
    (List.init (Grammar.num_nonterminals g) Fun.id)
  && Symbols.Int_set.is_empty (Left_recursion.left_recursive_nts g anl)

(* Where a fresh cache's table differs from what the DFA decides.  Outside
   the gate the table is the single-alternative prefill and nothing else.
   Inside it, each entry of a multi-alternative decision is checked
   against what [Cache.learn] writes after [Sll.predict] walks a fresh
   cache on that one column (learn overwrites the static entry): a
   production decided at depth 1 on a terminal, or at depth 0 at the end of
   input, must be the static entry; anything else, a settled miss, must be
   an empty static entry. *)
let static_table_mismatch g =
  let anl = Analysis.make g in
  let n_terms = Grammar.num_terminals g in
  let stride = n_terms + 1 in
  let table = Cache.decisions (Cache.create anl) in
  let exact = ll1_exact g anl in
  let word col =
    Word.of_tokens
      (if col = n_terms then []
       else [ { Token.term = col; lexeme = ""; line = 1; col = 0 } ])
  in
  let expected x col =
    match Grammar.prods_of g x with
    | [ ix ] -> (ix lsl 2) lor 2
    | _ :: _ :: _ when exact -> (
      let c = Cache.create anl and w = word col in
      ignore (Sll.predict g anl c x w 0);
      Cache.learn c x w 0;
      match Cache.decision c x w 0 with
      | -2 -> -1
      | e when e >= 0 && e land 3 = if col = n_terms then 0 else 1 ->
        ((e lsr 2) lsl 2) lor 3
      | e -> Alcotest.failf "learn wrote %d for %s at column %d" e
               (Grammar.nonterminal_name g x) col)
    | _ -> -1
  in
  let bad = ref None in
  for x = Grammar.num_nonterminals g - 1 downto 0 do
    for col = n_terms downto 0 do
      let e = table.((x * stride) + col) and e' = expected x col in
      if e <> e' then bad := Some (x, col, e, e')
    done
  done;
  !bad

let report g (x, col, e, e') =
  Printf.sprintf "%s at column %d: table %d, DFA %d"
    (Grammar.nonterminal_name g x) col e e'

let prop_static_table_exact =
  QCheck.Test.make ~count:600 ~name:"static table = what the DFA decides"
    (QCheck.make ~print:(Fmt.to_to_string Grammar.pp) Util.gen_grammar)
    (fun g ->
      match static_table_mismatch g with
      | None -> true
      | Some m -> QCheck.Test.fail_report (report g m))

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let test_static_table_langs () =
  List.iter
    (fun l ->
      let g = Costar_langs.Lang.grammar l in
      (match static_table_mismatch g with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" l.Costar_langs.Lang.name (report g m));
      Alcotest.(check bool)
        (l.Costar_langs.Lang.name ^ " has static LL(1) entries") true
        (Array.exists
           (fun e -> e >= 0 && e land 3 = 3)
           (Cache.decisions (Cache.create (Analysis.make g)))))
    langs

(* A cold parse builds DFA states only for decisions that need two tokens:
   a generated minipy file of about 4 KB interns 15 states or fewer across
   seeds, against about 400 when every decision was built from closures. *)
let test_cold_minipy_states () =
  let l = Costar_langs.Minipy.lang in
  List.iter
    (fun seed ->
      let p = Parser.make (Costar_langs.Lang.grammar l) in
      let w =
        Word.of_buf
          (Costar_langs.Lang.tokenize_buf_exn l
             (Costar_langs.Lang.generate l ~seed ~size:800))
      in
      Instr.reset ();
      Instr.enabled := true;
      let r = Parser.run_word p w in
      Instr.enabled := false;
      (match r with
      | Parser.Unique _ -> ()
      | r -> Alcotest.failf "seed %d: %a" seed (Parser.pp_result (Parser.grammar p)) r);
      let n = (Instr.cache_totals ()).Instr.state_interns in
      if n > 40 then Alcotest.failf "seed %d: %d state interns (bound 40)" seed n)
    [ 1; 2; 3 ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sll_predict_agrees;
      prop_ll_predict_agrees;
      prop_closure_and_fork_agree;
      prop_static_table_exact;
    ]

let () =
  Alcotest.run "intern"
    [
      ( "unit",
        [
          Alcotest.test_case "add_trans idempotent" `Quick
            test_add_trans_idempotent;
          Alcotest.test_case "v1 cache rejected" `Quick test_v1_cache_rejected;
          Alcotest.test_case "two-token decision never tabled" `Quick
            test_two_token_decision_untabled;
          Alcotest.test_case "table survives copy, freeze and overlay" `Quick
            test_table_survives_copy_and_overlay;
          Alcotest.test_case "loaded image relearns the table" `Quick
            test_image_relearns_table;
          Alcotest.test_case "static table = what the DFA decides (4 langs)"
            `Quick test_static_table_langs;
          Alcotest.test_case "cold minipy parse interns at most 40 states"
            `Quick test_cold_minipy_states;
        ] );
      ("differential", props);
    ]
