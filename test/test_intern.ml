(* Differential tests for the interned prediction engine (hash-consed
   frames, dense config ids, array DFA stepping) against the structural
   oracle kept in [Costar_core.Structural]: identical predictions, closure
   results, and stable-return fork flags on every grammar, decision and
   input.  Plus unit regressions for the idempotent [Cache.add_trans] and
   the versioned (v2) cache persistence format. *)

open Costar_grammar
open Costar_core
module S = Structural

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

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

(* Predictions are compared observably: same constructor, same production
   index, same error. *)
let same_prediction p1 p2 =
  match p1, p2 with
  | Types.Unique_pred i, Types.Unique_pred j
  | Types.Ambig_pred i, Types.Ambig_pred j ->
    i = j
  | Types.Reject_pred, Types.Reject_pred -> true
  | Types.Error_pred e1, Types.Error_pred e2 -> e1 = e2
  | _ -> false

let decision_nts g =
  List.filter
    (fun x -> List.length (Grammar.prods_of g x) > 1)
    (List.init (Grammar.num_nonterminals g) Fun.id)

(* Decode an interned SLL configuration to the structural representation. *)
let decode_sll fr (cfg : Config.sll) =
  {
    S.Config.s_pred = cfg.Config.s_pred;
    s_frames = Frames.frames_of_spine fr cfg.Config.s_frames;
    s_ctx =
      (match cfg.Config.s_ctx with
      | Config.Ctx_nt x -> S.Config.Ctx_nt x
      | Config.Ctx_accept -> S.Config.Ctx_accept);
  }

(* --- differential properties ------------------------------------------- *)

let prop_sll_predict_agrees =
  QCheck.Test.make ~count:500
    ~name:"interned SLL predict = structural SLL predict"
    Util.arb_grammar_word (fun (g, w) ->
      let toks = Grammar.tokens g w in
      let anl = Analysis.make g in
      List.for_all
        (fun x ->
          let _, structural =
            S.Sll.predict g anl S.Cache.empty x toks
          in
          let _, interned = Sll.predict g anl (Cache.create anl) x toks in
          same_prediction structural interned)
        (decision_nts g))

let prop_ll_predict_agrees =
  QCheck.Test.make ~count:500
    ~name:"interned LL predict = structural LL predict"
    Util.arb_grammar_word (fun (g, w) ->
      let toks = Grammar.tokens g w in
      let anl = Analysis.make g in
      List.for_all
        (fun x ->
          same_prediction
            (S.Ll.predict g x [ [] ] toks)
            (Ll.predict g anl x [ [] ] toks))
        (decision_nts g))

let same_closure r1 r2 =
  match r1, r2 with
  | Error e1, Error e2 -> e1 = e2
  | Ok (stable1, forked1), Ok (stable2, forked2) ->
    forked1 = forked2
    && List.equal (fun c1 c2 -> Config.compare_sll c1 c2 = 0) stable1 stable2
  | _ -> false

let prop_closure_and_fork_agree =
  (* The interned closure must produce the same stable configurations
     (after decoding) and the same stable-return fork flag as the
     structural closure, for the initial configurations of every
     decision.  The memoized closure, run through one cache shared by
     every decision, must agree with the direct one — and keep agreeing
     when the same configurations come back under other prediction
     labels, which hit the label-erased memo entries of the first pass. *)
  QCheck.Test.make ~count:500
    ~name:"interned closure = structural closure (configs + fork flag)"
    (QCheck.make Util.gen_grammar ~print:(Fmt.to_to_string Grammar.pp))
    (fun g ->
      let anl = Analysis.make g in
      let fr = Analysis.frames anl in
      let cache = Cache.create anl in
      let relabel cfgs =
        List.map (fun c -> { c with Config.s_pred = c.Config.s_pred + 7 }) cfgs
      in
      List.for_all
        (fun x ->
          let configs = Sll.init_configs g anl x in
          let structural =
            S.Sll.closure_ext g anl (S.Sll.init_configs g x)
          in
          let interned = Sll.closure_ext g anl configs in
          let memoized c = snd (Sll.closure_cached_ext g anl cache c) in
          (match structural, interned with
          | Error e1, Error e2 -> e1 = e2
          | Ok (stable1, forked1), Ok (stable2, forked2) ->
            forked1 = forked2
            && S.Config.Sll_set.equal
                 (S.Config.Sll_set.of_list stable1)
                 (S.Config.Sll_set.of_list (List.map (decode_sll fr) stable2))
          | _ -> false)
          && same_closure interned (memoized configs)
          && same_closure
               (Sll.closure_ext g anl (relabel configs))
               (memoized (relabel configs)))
        (decision_nts g))

let prop_parse_agrees_with_turbo_baseline =
  (* End to end: the interned parser and the structural-engine Turbo
     baseline accept/reject the same words.  (Tree-level agreement is
     covered by test_turbo; this guards the engines' verdicts after the
     representation split.) *)
  QCheck.Test.make ~count:300 ~name:"interned parse verdict = Turbo verdict"
    Util.arb_grammar_word (fun (g, w) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () -> (
        let toks = Grammar.tokens g w in
        let turbo = Costar_turbo.Turbo.create g in
        match Parser.parse g toks, Costar_turbo.Turbo.parse turbo toks with
        | Parser.Unique _, Parser.Unique _
        | Parser.Ambig _, Parser.Ambig _
        | Parser.Reject _, Parser.Reject _
        | Parser.Error _, Parser.Error _ ->
          true
        | _ -> false))

(* --- add_trans idempotency (regression) --------------------------------- *)

let test_add_trans_idempotent () =
  let g = fig2 in
  let anl = Analysis.make g in
  let c = Cache.create anl in
  let c, sid0 =
    match Sll.closure g anl (Sll.init_configs g anl (nt g "S")) with
    | Ok configs -> Cache.intern c configs
    | Error _ -> Alcotest.fail "closure failed"
  in
  let c, sid1 =
    match Sll.closure g anl (Sll.init_configs g anl (nt g "A")) with
    | Ok configs -> Cache.intern c configs
    | Error _ -> Alcotest.fail "closure failed"
  in
  let a = 0 in
  let c = Cache.add_trans c sid0 a sid1 in
  check_int "one transition" 1 (Cache.num_transitions c);
  (* Re-adding the same transition must not double-count... *)
  let c = Cache.add_trans c sid0 a sid1 in
  check_int "still one transition" 1 (Cache.num_transitions c);
  (* ...nor may a conflicting re-add clobber the recorded successor. *)
  let c = Cache.add_trans c sid0 a sid0 in
  check_int "no double count on conflict" 1 (Cache.num_transitions c);
  Alcotest.(check (option int))
    "first successor kept" (Some sid1)
    (Cache.find_trans c sid0 a)

(* --- persistence format (v2) ------------------------------------------- *)

let test_v1_cache_rejected () =
  let g = fig2 in
  let anl = Analysis.make g in
  let fp = Grammar.fingerprint g in
  (* A file in the shape of the pre-interning format: magic, version 1,
     fingerprint, then a (now meaningless) marshalled payload. *)
  let v1 = Printf.sprintf "costar/sll-dfa\n1\n%s\nPAYLOAD" fp in
  match Cache.of_precompiled ~anl ~fingerprint:fp v1 with
  | Ok _ -> Alcotest.fail "v1 cache accepted"
  | Error msg ->
    check "error names the version"
      true
      (contains ~affix:"format version 1" msg);
    check "error says how to regenerate" true
      (contains ~affix:"costar analyze" msg)

let test_v2_roundtrip_reinterns_identically () =
  let g = fig2 in
  let p = Parser.make g in
  let anl = Parser.analysis p in
  let fp = Grammar.fingerprint g in
  (* Build a populated cache by parsing a few words. *)
  let cache =
    List.fold_left
      (fun cache w ->
        snd (Parser.run_with_cache p cache (Grammar.tokens g w)))
      (Cache.create anl)
      [ [ "a"; "a"; "b"; "c" ]; [ "b"; "d" ]; [ "a"; "b"; "d" ] ]
  in
  let blob = Cache.precompile ~fingerprint:fp cache in
  match Cache.of_precompiled ~anl ~fingerprint:fp blob with
  | Error e -> Alcotest.failf "roundtrip failed: %s" e
  | Ok c2 ->
    check_int "states survive" (Cache.num_states cache) (Cache.num_states c2);
    check_int "transitions survive"
      (Cache.num_transitions cache)
      (Cache.num_transitions c2);
    (* Reloading re-interns states in id order: every state's canonical
       configuration set must land on the same id, making transitions and
       inits meaningful without translation. *)
    for sid = 0 to Cache.num_states cache - 1 do
      let configs = (Cache.info cache sid).Cache.configs in
      let _, sid' = Cache.intern c2 configs in
      check_int "state id reproduced" sid sid'
    done;
    (* And the reloaded cache parses identically. *)
    List.iter
      (fun w ->
        let toks = Grammar.tokens g w in
        let r1 = Parser.run p toks in
        let r2, _ = Parser.run_with_cache p c2 toks in
        check "same outcome" true
          (match r1, r2 with
          | Parser.Unique t1, Parser.Unique t2 -> Tree.equal t1 t2
          | Parser.Reject _, Parser.Reject _ -> true
          | _ -> false))
      [ [ "a"; "b"; "c" ]; [ "b"; "d" ]; [ "b"; "a" ] ]

let test_wrong_suffix_table_rejected () =
  (* Tamper with the suffix-table digest line: the load must fail before
     unmarshalling, with a digest-specific message. *)
  let g = fig2 in
  let anl = Analysis.make g in
  let fp = Grammar.fingerprint g in
  let blob = Cache.precompile ~fingerprint:fp (Cache.create anl) in
  let lines = String.split_on_char '\n' blob in
  let tampered =
    match lines with
    | magic :: version :: fp' :: _digest :: rest ->
      String.concat "\n" (magic :: version :: fp' :: "deadbeef" :: rest)
    | _ -> Alcotest.fail "unexpected blob shape"
  in
  match Cache.of_precompiled ~anl ~fingerprint:fp tampered with
  | Ok _ -> Alcotest.fail "tampered suffix table accepted"
  | Error msg ->
    check "digest mismatch reported" true
      (contains ~affix:"suffix table" msg)

(* Loader hardening: whatever bytes we feed the v2 loader — truncations of
   a valid file at every prefix length, bit flips in the header, garbage
   payloads — it must return a typed [Error], never let an exception
   escape, and never accept a damaged file as [Ok]. *)
let test_truncated_cache_fails_cleanly () =
  let g = fig2 in
  let p = Parser.make g in
  let anl = Parser.analysis p in
  let fp = Grammar.fingerprint g in
  let cache =
    List.fold_left
      (fun cache w -> snd (Parser.run_with_cache p cache (Grammar.tokens g w)))
      (Cache.create anl)
      [ [ "a"; "a"; "b"; "c" ]; [ "b"; "d" ] ]
  in
  let blob = Cache.precompile ~fingerprint:fp cache in
  for len = 0 to String.length blob - 1 do
    let truncated = String.sub blob 0 len in
    match Cache.of_precompiled ~anl ~fingerprint:fp truncated with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error msg -> check "error is non-empty" true (String.length msg > 0)
    | exception e ->
      Alcotest.failf "truncation to %d bytes escaped with %s" len
        (Printexc.to_string e)
  done

let test_header_fuzz_fails_cleanly () =
  let g = fig2 in
  let anl = Analysis.make g in
  let fp = Grammar.fingerprint g in
  let blob = Cache.precompile ~fingerprint:fp (Cache.create anl) in
  let header_len =
    (* End of the fourth header line: the start of the marshalled payload. *)
    let rec nth_nl i = function
      | 0 -> i
      | k -> nth_nl (String.index_from blob i '\n' + 1) (k - 1)
    in
    nth_nl 0 4
  in
  let rand = Random.State.make [| 0x5eed |] in
  let try_load s =
    match Cache.of_precompiled ~anl ~fingerprint:fp s with
    | Error msg -> check "error is non-empty" true (String.length msg > 0)
    | Ok _ ->
      (* Only acceptable if the fuzz happened to leave the bytes intact. *)
      check "accepted only when unchanged" true (String.equal s blob)
    | exception e ->
      Alcotest.failf "fuzzed header escaped with %s" (Printexc.to_string e)
  in
  (* Single-byte corruptions across the whole header. *)
  for i = 0 to header_len - 1 do
    let b = Bytes.of_string blob in
    Bytes.set b i (Char.chr (Random.State.int rand 256));
    try_load (Bytes.to_string b)
  done;
  (* Random garbage payloads behind a pristine header. *)
  for _ = 1 to 50 do
    let n = Random.State.int rand 200 in
    let junk =
      String.init n (fun _ -> Char.chr (Random.State.int rand 256))
    in
    try_load (String.sub blob 0 header_len ^ junk)
  done;
  (* Pathological shapes. *)
  List.iter try_load
    [ ""; "\n"; "costar/sll-dfa"; "costar/sll-dfa\n"; "costar/sll-dfa\n2";
      "costar/sll-dfa\n2\n" ^ fp; "costar/sll-dfa\n2\n" ^ fp ^ "\n";
      String.make 4096 '\xff' ]

let props =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_sll_predict_agrees;
      prop_ll_predict_agrees;
      prop_closure_and_fork_agree;
      prop_parse_agrees_with_turbo_baseline;
    ]

let () =
  Alcotest.run "intern"
    [
      ( "unit",
        [
          Alcotest.test_case "add_trans idempotent" `Quick
            test_add_trans_idempotent;
          Alcotest.test_case "v1 cache rejected" `Quick test_v1_cache_rejected;
          Alcotest.test_case "v2 roundtrip re-interns identically" `Quick
            test_v2_roundtrip_reinterns_identically;
          Alcotest.test_case "wrong suffix table rejected" `Quick
            test_wrong_suffix_table_rejected;
          Alcotest.test_case "truncated cache fails cleanly" `Quick
            test_truncated_cache_fails_cleanly;
          Alcotest.test_case "header fuzz fails cleanly" `Quick
            test_header_fuzz_fails_cleanly;
        ] );
      ("differential", props);
    ]
