(* Theorems-as-tests for the multicore batch engine (DESIGN.md §9).

   The central property is the differential one: because DFA-cache contents
   never influence parse results, a batch run — any number of domains, any
   round split, cold or warm snapshot — must be result-identical (verdict,
   tree, ambiguity flag, error positions) to parsing the corpus
   sequentially.  Alongside it, the freeze/overlay/absorb round-trip is
   pinned to produce the very same cache CONTENT as sequential warming, and
   absorb is checked idempotent and order-independent. *)

open Costar_grammar
open Costar_core
module Batch = Costar_parallel.Batch

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Domain counts under test.  CI's parallel-smoke step pins a single count
   via COSTAR_TEST_DOMAINS (e.g. "2" or "4"); the default exercises the
   full ladder of the ISSUE's differential property. *)
let domain_counts =
  match Sys.getenv_opt "COSTAR_TEST_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4; 8 ]
  | Some s ->
    List.map
      (fun x ->
        match int_of_string_opt (String.trim x) with
        | Some d when d >= 1 -> d
        | _ -> failwith ("COSTAR_TEST_DOMAINS: bad count " ^ x))
      (String.split_on_char ',' s)

let pp_outcome g ppf = function
  | Ok r -> Parser.pp_result g ppf r
  | Error msg -> Fmt.pf ppf "Lex_error (%s)" msg

let same_outcome o1 o2 =
  match o1, o2 with
  | Ok r1, Ok r2 -> Util.same_result ~messages:true r1 r2
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

(* --- language corpora ---------------------------------------------------- *)

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

(* A corpus that exercises every outcome: well-formed files of several
   sizes, a truncated file (syntax error or lex error at a real position),
   and a file with a byte no lexer accepts. *)
let corpus_for l =
  let gen seed size = Costar_langs.Lang.generate l ~seed ~size in
  let whole = List.map (fun (s, n) -> gen s n)
      [ (1, 20); (2, 60); (3, 120); (4, 200); (5, 90); (6, 40); (7, 150); (8, 10) ]
  in
  let big = gen 9 160 in
  let truncated = String.sub big 0 (String.length big / 2) in
  let garbage = gen 10 30 ^ "\x01\x01" in
  Array.of_list (whole @ [ truncated; garbage ])

let tokenize_of_lang l s =
  Result.map Word.of_buf (Costar_langs.Lang.tokenize_buf l s)

(* The sequential oracle: one fresh parser, run_buf in corpus order. *)
let sequential_outcomes l inputs =
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  Array.map
    (fun s ->
      match tokenize_of_lang l s with
      | Error msg -> Error msg
      | Ok w -> Ok (Parser.run_word p w))
    inputs

let test_batch_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      let expected = sequential_outcomes l inputs in
      List.iter
        (fun d ->
          (* Cold: a fresh parser whose snapshot holds only the static
             grammar cache.  Warm: the same parser again, its base cache
             now holding everything the first batch absorbed. *)
          let p = Parser.make g in
          let check_run phase =
            let results, st =
              Batch.run_batch ~domains:d p
                ~tokenize:(tokenize_of_lang l) inputs
            in
            check_int
              (Printf.sprintf "%s %dd %s: result count" name d phase)
              (Array.length expected) (Array.length results);
            Array.iteri
              (fun i r ->
                if not (same_outcome expected.(i) r) then
                  Alcotest.failf "%s %dd %s: file %d differs: %a vs %a" name
                    d phase i (pp_outcome g) expected.(i) (pp_outcome g) r)
              results;
            check_int
              (Printf.sprintf "%s %dd %s: domains spawned" name d phase)
              d st.Batch.st_domains;
            check_int
              (Printf.sprintf "%s %dd %s: files accounted" name d phase)
              (Array.length inputs)
              (Array.fold_left
                 (fun a ds -> a + ds.Batch.ds_files)
                 0 st.Batch.st_per_domain)
          in
          check_run "cold";
          check_run "warm";
          (* Multi-round: overlays absorbed between rounds of 3 files. *)
          let p3 = Parser.make g in
          let results, st =
            Batch.run_batch ~domains:d ~round_size:3 p3
              ~tokenize:(tokenize_of_lang l) inputs
          in
          check
            (Printf.sprintf "%s %dd rounds: round count" name d)
            true
            (st.Batch.st_rounds = (Array.length inputs + 2) / 3);
          Array.iteri
            (fun i r ->
              if not (same_outcome expected.(i) r) then
                Alcotest.failf "%s %dd rounds: file %d differs" name d i)
            results)
        domain_counts)
    langs

(* --- prefork differential ------------------------------------------------ *)

(* The process tier must satisfy the exact same differential as the domain
   tier: any worker count, cold or image-backed base, verdicts identical
   to sequential parsing.  Runs at 2 and 4 workers (CI smokes 2). *)
let test_prefork_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      let expected = sequential_outcomes l inputs in
      List.iter
        (fun workers ->
          let p = Parser.make g in
          let results, st =
            Batch.run_prefork ~workers p ~tokenize:(tokenize_of_lang l) inputs
          in
          Array.iteri
            (fun i r ->
              if not (same_outcome expected.(i) r) then
                Alcotest.failf "%s %dw prefork: file %d differs: %a vs %a" name
                  workers i (pp_outcome g) expected.(i) (pp_outcome g) r)
            results;
          check_int
            (Printf.sprintf "%s %dw prefork: workers accounted" name workers)
            workers st.Batch.st_domains;
          check_int
            (Printf.sprintf "%s %dw prefork: files accounted" name workers)
            (Array.length inputs)
            (Array.fold_left
               (fun a ds -> a + ds.Batch.ds_files)
               0 st.Batch.st_per_domain))
        [ 2; 4 ])
    langs

(* Prefork over an mmapped v3 cache image: save the warmed base cache,
   reload it image-backed, fork workers over the mapping — still verdict-
   identical to sequential parsing. *)
let test_prefork_over_image () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      let expected = sequential_outcomes l inputs in
      let fp = Grammar.fingerprint g in
      (* Warm a parser on a few files, save its cache as an image. *)
      let psrc = Parser.make g in
      Array.iteri
        (fun i s ->
          if i < 3 then
            match tokenize_of_lang l s with
            | Ok w -> ignore (Parser.run_word psrc w)
            | Error _ -> ())
        inputs;
      let file = Filename.temp_file "costar_prefork" ".img" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Cache.save_image ~fingerprint:fp (Parser.base_cache psrc) file;
          let p = Parser.make g in
          (match
             Cache.load_image ~anl:(Parser.analysis p) ~fingerprint:fp file
           with
          | Error e ->
            Alcotest.failf "%s: image load failed: %s" name
              (Cache.image_error_to_string e)
          | Ok c -> Parser.set_base_cache p c);
          let results, _ =
            Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l)
              inputs
          in
          Array.iteri
            (fun i r ->
              if not (same_outcome expected.(i) r) then
                Alcotest.failf "%s prefork-over-image: file %d differs" name i)
            results))
    langs

(* Results that span many pipe reads, and a worker that dies mid-file: a
   large file's result message (hundreds of kilobytes) must decode intact
   alongside small ones, and the dead worker's file must surface as a typed
   error while every other file still matches sequential parsing. *)
(* A result crosses the process boundary as plain data: it marshals
   without [Marshal.Closures], comes back as an equal tree, and its size
   does not depend on spare capacity in the token buffer or the event
   buffer, since a tree keeps only the used prefix of each. *)
let test_result_marshal () =
  let l = Costar_langs.Json.lang in
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  let text = Costar_langs.Lang.generate l ~seed:5 ~size:300 in
  let parse capacity =
    let buf = Token_buf.create ~capacity text in
    Costar_lex.Scanner.scan_into (Lazy.force Costar_langs.Json.compiled) buf text;
    Parser.run_word p (Word.of_buf buf)
  in
  let bytes v = Marshal.to_string v [] in
  let r = parse 8 in
  (match (Marshal.from_string (bytes r) 0 : Parser.result), r with
  | Parser.Unique t', Parser.Unique t ->
    check "round-trips to an equal tree" true (Tree.equal t t')
  | _ -> Alcotest.fail "expected a Unique result");
  check_int "token-buffer capacity adds no bytes" (String.length (bytes r))
    (String.length (bytes (parse 100_000)));
  let word = Word.of_tokens [ Token.make 0 "a"; Token.make 0 "b" ] in
  let tree capacity =
    let ev = Tree.Events.create capacity in
    Tree.Events.leaf ev 0 0;
    Tree.Events.leaf ev 1 1;
    Tree.Events.node ev 2 0 ~first:0;
    Tree.Events.seal ev word 3
  in
  check "same tree" true (Tree.equal (tree 1) (tree 10_000));
  check_int "event-buffer capacity adds no bytes"
    (String.length (bytes (tree 1)))
    (String.length (bytes (tree 10_000)))

let test_prefork_large_and_crash () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let big = Costar_langs.Lang.generate l ~seed:3 ~size:20000 in
  let crash = "crash this worker" in
  let inputs =
    [| big; Costar_langs.Lang.generate l ~seed:4 ~size:30; crash; big |]
  in
  let tokenize s = if s = crash then Unix._exit 3 else tokenize_of_lang l s in
  let expected = sequential_outcomes l [| big; inputs.(1) |] in
  (match expected.(0) with
  | Ok r ->
    check "big result spans several reads" true
      (String.length (Marshal.to_string r []) > 4 * 65536)
  | Error msg -> Alcotest.failf "big input does not lex: %s" msg);
  let results, _ = Batch.run_prefork ~workers:2 (Parser.make g) ~tokenize inputs in
  List.iter
    (fun (i, e) ->
      if not (same_outcome expected.(e) results.(i)) then
        Alcotest.failf "prefork file %d differs: %a vs %a" i (pp_outcome g)
          expected.(e) (pp_outcome g) results.(i))
    [ (0, 0); (1, 1); (3, 0) ];
  match results.(2) with
  | Error msg ->
    Alcotest.(check string)
      "crashed file reported as a worker exit"
      "costar batch: worker process exited before reporting this file" msg
  | Ok _ -> Alcotest.fail "the crashing file produced a result"

(* --- random-grammar differential ----------------------------------------- *)

(* Random grammars parsed through the batch engine: the corpus is several
   random words of one grammar, the tokenizer maps terminal names.  Two
   domains and a round split keep the schedule nontrivial without making
   the property slow. *)
let arb_grammar_words =
  let gen =
    let open QCheck.Gen in
    Util.gen_grammar >>= fun g ->
    int_range 2 6 >>= fun n ->
    list_repeat n (Util.gen_word g) >|= fun ws -> (g, ws)
  in
  QCheck.make
    ~print:(fun (g, ws) ->
      Fmt.str "@[<v>%a@,words: %s@]" Grammar.pp g
        (String.concat " | " (List.map (String.concat " ") ws)))
    gen

let tokenize_names g s =
  let names = List.filter (fun x -> x <> "") (String.split_on_char ' ' s) in
  let toks =
    List.map
      (fun name ->
        match Grammar.terminal_of_name g name with
        | Some a -> Token.make a name
        | None -> failwith ("not a terminal: " ^ name))
      names
  in
  Ok (Word.of_tokens toks)

let prop_batch_random_grammars =
  QCheck.Test.make ~count:60
    ~name:"run_batch = sequential run_word (random grammars, 2 domains)"
    arb_grammar_words (fun (g, ws) ->
      match Left_recursion.check g with
      | Error _ -> true
      | Ok () ->
        let inputs = Array.of_list (List.map (String.concat " ") ws) in
        let pseq = Parser.make g in
        let expected =
          Array.map
            (fun s ->
              match tokenize_names g s with
              | Ok w -> Ok (Parser.run_word pseq w)
              | Error _ -> assert false)
            inputs
        in
        let p = Parser.make g in
        let results, _ =
          Batch.run_batch ~domains:2 ~round_size:2 p
            ~tokenize:(tokenize_names g) inputs
        in
        Array.for_all2 (fun a b -> same_outcome a b) expected results)

(* --- frozen-snapshot semantics ------------------------------------------- *)

(* Canonical cache content, independent of state/config id assignment and
   of which frames interner the cache lives in: states become sorted lists
   of decoded configurations, transitions and initials refer to states by
   that decoded value. *)
type canon_config = int * Symbols.symbol list list * Config.sctx

let canon_state fr (info : Cache.info) : canon_config list =
  List.sort compare
    (List.map
       (fun (c : Config.sll) ->
         (c.Config.s_pred, Frames.frames_of_spine fr c.Config.s_frames,
          c.Config.s_ctx))
       info.Cache.configs)

let canon_of_cache g c =
  let fr = Cache.frames c in
  let n = Cache.num_states c in
  let states = Array.init n (fun sid -> canon_state fr (Cache.info c sid)) in
  let trans = ref [] in
  for sid = 0 to n - 1 do
    for a = 0 to Grammar.num_terminals g - 1 do
      match Cache.find_trans c sid a with
      | None -> ()
      | Some sid' -> trans := (states.(sid), a, states.(sid')) :: !trans
    done
  done;
  let inits = ref [] in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    match Cache.find_init c x with
    | None -> ()
    | Some sid -> inits := (x, states.(sid)) :: !inits
  done;
  ( List.sort compare (Array.to_list states),
    List.sort compare !trans,
    List.sort compare !inits )

let warm_sequentially p inputs tokenize =
  Array.iter
    (fun s ->
      match tokenize s with
      | Ok w -> ignore (Parser.run_word p w)
      | Error _ -> ())
    inputs

let test_freeze_absorb_equals_sequential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      (* Sequential warming. *)
      let pseq = Parser.make g in
      warm_sequentially pseq inputs (tokenize_of_lang l);
      let seq_canon = canon_of_cache g (Parser.base_cache pseq) in
      (* Batch warming over the same inputs, several domains + rounds. *)
      let pbatch = Parser.make g in
      ignore
        (Batch.run_batch ~domains:3 ~round_size:4 pbatch
           ~tokenize:(tokenize_of_lang l) inputs);
      let batch_canon = canon_of_cache g (Parser.base_cache pbatch) in
      check
        (Printf.sprintf "%s: batch cache content = sequential cache content"
           name)
        true
        (seq_canon = batch_canon))
    [ Costar_langs.Json.lang; Costar_langs.Minipy.lang ]

let test_absorb_idempotent_order_independent () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let n = Array.length inputs in
  let half1 = Array.sub inputs 0 (n / 2) in
  let half2 = Array.sub inputs (n / 2) (n - n / 2) in
  let p = Parser.make g in
  let master = Parser.base_cache p in
  let fz = Cache.freeze master in
  (* The whole first-token table: json's static entries plus the settled
     misses the overlays learn. *)
  let table c = Array.copy (Cache.decisions c) in
  let master_table = table master in
  let warm_overlay half =
    let o = Cache.overlay fz in
    Array.iter
      (fun s ->
        match tokenize_of_lang l s with
        | Ok w -> ignore (Parser.run_word ~cache:o p w)
        | Error _ -> ())
      half;
    o
  in
  let o1 = warm_overlay half1 in
  let o2 = warm_overlay half2 in
  check "overlays learned something" true
    (Cache.overlay_new_states o1 > 0 || Cache.num_transitions o1 > 0);
  (* Overlay reads must see the frozen base: state count includes it. *)
  check "overlay counts include the snapshot" true
    (Cache.num_states o1 >= Cache.frozen_num_states fz);
  (* Idempotence: absorbing the same overlay twice is absorbing it once. *)
  let absorbed overlays =
    let m = Cache.copy master in
    List.iter (Cache.absorb m) overlays;
    m
  in
  let m1 = absorbed [ o1 ] in
  let once = canon_of_cache g m1 in
  let table_once = table m1 in
  Cache.absorb m1 o1;
  check "absorb idempotent" true (canon_of_cache g m1 = once);
  check "absorb idempotent on the table" true
    (table m1 = table_once);
  (* Order independence (content-level): o1 then o2 = o2 then o1. *)
  let m12 = absorbed [ o1; o2 ] in
  let m21 = absorbed [ o2; o1 ] in
  check "absorb order-independent" true
    (canon_of_cache g m12 = canon_of_cache g m21);
  check "absorb order-independent on the table" true
    (table m12 = table m21);
  (* And both agree with warming the master on everything sequentially. *)
  let pseq = Parser.make g in
  warm_sequentially pseq inputs (tokenize_of_lang l);
  check "absorbed halves = sequential whole" true
    (canon_of_cache g m12 = canon_of_cache g (Parser.base_cache pseq));
  check "absorbed tables = sequential table" true
    (table m12 = table (Parser.base_cache pseq));
  check "the tables learned" true (table m12 <> master_table)

let test_freeze_rejects_overlay () =
  let l = Costar_langs.Json.lang in
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  let fz = Cache.freeze (Parser.base_cache p) in
  let o = Cache.overlay fz in
  match Cache.freeze o with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "freeze of an overlay must be rejected"

(* Mutating an overlay never changes what the frozen snapshot answers. *)
let test_snapshot_immutable_under_overlay_growth () =
  let l = Costar_langs.Minipy.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let p = Parser.make g in
  let fz = Cache.freeze (Parser.base_cache p) in
  let before =
    (Cache.frozen_num_states fz, Cache.frozen_num_transitions fz)
  in
  let o = Cache.overlay fz in
  Array.iter
    (fun s ->
      match tokenize_of_lang l s with
      | Ok w -> ignore (Parser.run_word ~cache:o p w)
      | Error _ -> ())
    inputs;
  Alcotest.(check (pair int int))
    "snapshot unchanged" before
    (Cache.frozen_num_states fz, Cache.frozen_num_transitions fz)

let props =
  List.map QCheck_alcotest.to_alcotest [ prop_batch_random_grammars ]

let () =
  Alcotest.run "parallel"
    [
      ( "differential",
        [
          (* Prefork first: Unix.fork is only legal while no other domain
             has been spawned in this process, so the process-tier tests
             must precede every Domain.spawn. *)
          Alcotest.test_case "prefork = sequential (4 langs, 2+4 workers)"
            `Slow test_prefork_differential;
          Alcotest.test_case "prefork over mmapped image = sequential" `Slow
            test_prefork_over_image;
          Alcotest.test_case "results marshal as plain data" `Quick
            test_result_marshal;
          Alcotest.test_case "prefork: large results and a crashing worker"
            `Slow test_prefork_large_and_crash;
          Alcotest.test_case "batch = sequential (4 langs, cold+warm+rounds)"
            `Slow test_batch_differential;
        ]
        @ props );
      ( "snapshot",
        [
          Alcotest.test_case "freeze/overlay/absorb = sequential warming"
            `Slow test_freeze_absorb_equals_sequential;
          Alcotest.test_case "absorb idempotent and order-independent" `Quick
            test_absorb_idempotent_order_independent;
          Alcotest.test_case "freeze rejects overlays" `Quick
            test_freeze_rejects_overlay;
          Alcotest.test_case "snapshot immutable under overlay growth" `Quick
            test_snapshot_immutable_under_overlay_growth;
        ] );
    ]
