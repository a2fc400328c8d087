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

(* Every domain scans into its own scratch buffer and hands out copies.
   The token buffers workers produce — kept until all workers are done,
   so a scratch that escaped would show the last file its domain scanned
   — must equal the same pipeline run sequentially, token for token. *)
let test_batch_token_buffers () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let inputs = corpus_for l in
      let expected =
        Array.map
          (fun s -> Result.map Token_buf.to_tokens (Costar_langs.Lang.tokenize_buf l s))
          inputs
      in
      List.iter
        (fun d ->
          let bufs = Array.make (Array.length inputs) None in
          let tokenize s =
            let r = Costar_langs.Lang.tokenize_buf l s in
            (match r, Array.find_index (fun t -> t == s) inputs with
            | Ok buf, Some i -> bufs.(i) <- Some buf
            | _ -> ());
            Result.map Word.of_buf r
          in
          let p = Parser.make (Costar_langs.Lang.grammar l) in
          ignore (Batch.run_batch ~domains:d p ~tokenize inputs);
          Array.iteri
            (fun i e ->
              match e, bufs.(i) with
              | Ok toks, Some buf ->
                check
                  (Printf.sprintf "%s %dd file %d: same tokens" name d i)
                  true
                  (List.equal
                     (fun (t : Token.t) (t' : Token.t) -> t = t')
                     toks (Token_buf.to_tokens buf))
              | Error _, None -> ()
              | _ -> Alcotest.failf "%s %dd file %d: acceptance differs" name d i)
            expected)
        [ 1; 2; 4 ])
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
    langs;
  (* Eight pools were forked; wait for their workers rather than keep
     them until the parsers are collected. *)
  Batch.shutdown ()

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
  let compiled =
    Costar_lex.Scanner.compile (Lazy.force Costar_langs.Json.scanner)
      (Costar_langs.Lang.grammar l)
  in
  let parse capacity =
    let buf = Token_buf.create ~capacity text in
    Costar_lex.Scanner.scan_into compiled buf text;
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

(* --- prefork result transport --------------------------------------------- *)

(* A tree over a scanner buffer comes back through the worker's result
   file, which the parent copies it out of.  Results of one call must
   stay intact through a full major collection and a later call (whose
   workers write files of their own). *)
let test_prefork_results_outlive_the_call () =
  let run l =
    let inputs = corpus_for l in
    let results, _ =
      Batch.run_prefork ~workers:2
        (Parser.make (Costar_langs.Lang.grammar l))
        ~tokenize:(tokenize_of_lang l) inputs
    in
    (sequential_outcomes l inputs, results)
  in
  let check_same what l (expected, results) =
    Array.iteri
      (fun i r ->
        if not (same_outcome expected.(i) r) then
          Alcotest.failf "%s: file %d differs: %a vs %a" what i
            (pp_outcome (Costar_langs.Lang.grammar l))
            expected.(i)
            (pp_outcome (Costar_langs.Lang.grammar l))
            r)
      results
  in
  let first = run Costar_langs.Minipy.lang in
  Gc.full_major ();
  let second = run Costar_langs.Json.lang in
  Gc.full_major ();
  check_same "first call, after a second" Costar_langs.Minipy.lang first;
  check_same "second call" Costar_langs.Json.lang second

let open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* Result files are named costar-prefork-PID-N until they are unlinked,
   right after they are opened. *)
let leftover_result_files () =
  List.concat_map
    (fun dir ->
      match Sys.readdir dir with
      | names ->
        List.filter
          (fun f -> String.starts_with ~prefix:"costar-prefork-" f)
          (Array.to_list names)
      | exception Sys_error _ -> [])
    [ "/dev/shm"; Filename.get_temp_dir_name () ]

(* Pools hold their pipes and result files between calls by design, so
   the count is taken after [Batch.shutdown], which closes them all —
   also those of a pool whose worker crashed — and no file is left
   behind. *)
let test_prefork_releases_descriptors () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let crash = "crash this worker" in
  let tokenize s = if s = crash then Unix._exit 3 else tokenize_of_lang l s in
  Batch.shutdown ();
  let before = open_fds () in
  for k = 1 to 5 do
    let inputs = if k = 3 then Array.append inputs [| crash |] else inputs in
    let results, _ = Batch.run_prefork ~workers:2 (Parser.make g) ~tokenize inputs in
    check_int (Printf.sprintf "call %d: result count" k) (Array.length inputs)
      (Array.length results)
  done;
  Batch.shutdown ();
  check_int "open descriptors after five calls" before (open_fds ());
  Alcotest.(check (list string)) "no result file left" [] (leftover_result_files ())

(* What still crosses the pipe marshalled: a tree over a token-list word,
   a grammar reject and a lexer error, in one call beside a tree that
   takes the shared file.  A worker receives a copy of each input, so
   the tokenizer tells inputs apart by content. *)
let test_prefork_marshalled_paths () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let listed = "[1, {\"a\": [true, null]}, \"s\"]" in
  let tokenize s =
    if s = listed then Result.map Word.of_tokens (Costar_langs.Lang.tokenize l s)
    else tokenize_of_lang l s
  in
  let inputs =
    [| listed; Costar_langs.Lang.generate l ~seed:12 ~size:80; "[1, 2"; "[1, \x01]" |]
  in
  let p = Parser.make g in
  let expected =
    Array.map
      (fun s ->
        match tokenize s with
        | Error msg -> Error msg
        | Ok w -> Ok (Parser.run_word p w))
      inputs
  in
  (match expected with
  | [| Ok (Parser.Unique _); Ok (Parser.Unique _); Ok (Parser.Reject _); Error _ |] -> ()
  | _ -> Alcotest.fail "the corpus does not cover the four paths");
  let results, _ = Batch.run_prefork ~workers:2 (Parser.make g) ~tokenize inputs in
  Array.iteri
    (fun i r ->
      if not (same_outcome expected.(i) r) then
        Alcotest.failf "file %d differs: %a vs %a" i (pp_outcome g) expected.(i)
          (pp_outcome g) r)
    results

(* The parent checks each header before it builds a result over its own
   input.  A tokenizer that lexes a padded copy gives tokens past the end
   of the input the parent holds: that file becomes an [Error], and the
   call still returns every other file. *)
let test_prefork_checks_headers () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let short = "[1]" in
  let tokenize s =
    if s = short then tokenize_of_lang l ("      " ^ s) else tokenize_of_lang l s
  in
  let other = Costar_langs.Lang.generate l ~seed:13 ~size:40 in
  let results, _ =
    Batch.run_prefork ~workers:2 (Parser.make g) ~tokenize [| short; other |]
  in
  (match results.(0) with
  | Error msg ->
    Alcotest.(check string) "refused" "costar batch: worker result has tokens outside its input" msg
  | Ok _ -> Alcotest.fail "a result over tokens outside its input was accepted");
  check "the other file is parsed" true
    (same_outcome (sequential_outcomes l [| other |]).(0) results.(1))

(* --- lean workers ---------------------------------------------------------- *)

let unique_tree = function
  | Ok (Parser.Unique t) -> t
  | _ -> Alcotest.fail "expected a Unique parse"

(* Events per token as [Machine.finish] rounds it. *)
let density t = (Tree.size t + Tree.width t - 1) / Tree.width t

(* A worker parses into room for as many events as the parser's density
   predicts.  A fresh parser predicts 2 per token, which minipy's trees
   exceed: with one worker, the first file outgrows its room and takes
   the copying path, and the worker's density then fits a later file,
   which parses in place.  Both paths give the sequential trees, and the
   parent learns the largest density of the call. *)
let test_prefork_overflow_fallback () =
  let l = Costar_langs.Minipy.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs =
    Array.init 6 (fun k -> Costar_langs.Lang.generate l ~seed:(20 + k) ~size:(60 + (30 * k)))
  in
  let expected = sequential_outcomes l inputs in
  let trees = Array.map unique_tree expected in
  check "the first file outgrows the room of a fresh parser" true
    (Tree.size trees.(0) > (2 * Tree.width trees.(0)) + 16);
  check "a later file fits the room its predecessor leaves" true
    (List.exists
       (fun k -> Tree.size trees.(k) <= (density trees.(k - 1) * Tree.width trees.(k)) + 16)
       [ 1; 2; 3; 4; 5 ]);
  let p = Parser.make g in
  check_int "a fresh parser predicts 2 events per token" 2
    (Parser.env p).Machine.events_per_token;
  let results, _ = Batch.run_prefork ~workers:1 p ~tokenize:(tokenize_of_lang l) inputs in
  Array.iteri
    (fun i r ->
      if not (same_outcome expected.(i) r) then
        Alcotest.failf "file %d differs: %a vs %a" i (pp_outcome g) expected.(i) (pp_outcome g) r;
      check (Printf.sprintf "file %d: equal tree" i) true (Tree.equal trees.(i) (unique_tree r)))
    results;
  check_int "the parent learns the call's largest density"
    (Array.fold_left (fun a t -> max a (density t)) 0 trees)
    (Parser.env p).Machine.events_per_token

let with_image l f =
  let g = Costar_langs.Lang.grammar l in
  let fp = Grammar.fingerprint g in
  let learner = Parser.make g in
  Array.iter
    (fun s ->
      match tokenize_of_lang l s with
      | Ok w -> ignore (Parser.run_word learner w)
      | Error _ -> ())
    (corpus_for l);
  let file = Filename.temp_file "costar_learn_back" ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.save_image ~fingerprint:fp (Parser.base_cache learner) file;
      f (fun () ->
          let p = Parser.make g in
          (match Cache.load_image ~anl:(Parser.analysis p) ~fingerprint:fp file with
          | Ok c -> Parser.set_base_cache p c
          | Error e -> Alcotest.failf "image load failed: %s" (Cache.image_error_to_string e));
          p))

(* Learn-back: the parent replays on its own image-backed cache the table
   cells its workers filled and the image states they decoded.  After one
   call, every cell the parent learned holds the value a sequential pass
   over the same image writes, and a second call, whose workers start
   from the warmer parent, still equals sequential parsing. *)
let test_prefork_learn_back () =
  let learned_any = ref false in
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let inputs = corpus_for l in
      let expected = sequential_outcomes l inputs in
      with_image l (fun load ->
          let p = load () and seq = load () in
          let fresh = Array.copy (Cache.decisions (Parser.base_cache (load ()))) in
          let mark = Cache.learned_count (Parser.base_cache p) in
          let same_as_sequential what results =
            Array.iteri
              (fun i r ->
                if not (same_outcome expected.(i) r) then
                  Alcotest.failf "%s %s: file %d differs" name what i)
              results
          in
          same_as_sequential "first call"
            (fst (Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs));
          Array.iter
            (fun s ->
              match tokenize_of_lang l s with
              | Ok w -> ignore (Parser.run_word seq w)
              | Error _ -> ())
            inputs;
          let dp = Cache.decisions (Parser.base_cache p) in
          let ds = Cache.decisions (Parser.base_cache seq) in
          Array.iteri
            (fun k e ->
              if e <> fresh.(k) then begin
                learned_any := true;
                if e <> ds.(k) then
                  Alcotest.failf "%s: cell %d is %d in the parent, %d sequentially" name k e ds.(k)
              end)
            dp;
          List.iter
            (function
              | Cache.Learned_cell (x, col) ->
                let k = (x * (Grammar.num_terminals (Costar_langs.Lang.grammar l) + 1)) + col in
                check (name ^ ": a replayed cell is filled") true (dp.(k) <> fresh.(k))
              | Cache.Decoded_state _ -> ())
            (Cache.learned_since (Parser.base_cache p) mark);
          same_as_sequential "second call"
            (fst (Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs))))
    langs;
  check "the workers taught the parents some cell" true !learned_any

(* The replay recomputes each entry on the parent's cache and skips any
   whose nonterminal, column or state is out of range for it. *)
let test_replay_ignores_malformed () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let p = Parser.make g in
  Array.iter
    (fun s ->
      match tokenize_of_lang l s with
      | Ok w -> ignore (Parser.run_word p w)
      | Error _ -> ())
    (corpus_for l);
  let c = Parser.base_cache p in
  let before = Array.copy (Cache.decisions c) and logged = Cache.learned_count c in
  let n_nts = Grammar.num_nonterminals g and n_terms = Grammar.num_terminals g in
  Cache.replay c
    Cache.
      [
        Learned_cell (-1, 0);
        Learned_cell (n_nts, 0);
        Learned_cell (0, -1);
        Learned_cell (0, n_terms + 1);
        Learned_cell (max_int, max_int);
        Learned_cell (min_int, 0);
        Decoded_state (-1);
        Decoded_state (Cache.num_states c);
        Decoded_state max_int;
      ];
  check "no cell written" true (before = Cache.decisions c);
  check_int "nothing learned" logged (Cache.learned_count c)

let mapped_result_files () =
  In_channel.with_open_text "/proc/self/maps" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun line ->
         let rec has i =
           i + 15 <= String.length line && (String.sub line i 15 = "costar-prefork-" || has (i + 1))
         in
         has 0)

(* The parent copies results out of the workers' result files and keeps
   no mapping of them: after 200 calls whose results are dropped, a full
   major collection leaves no result file mapped. *)
let test_prefork_dead_mappings () =
  let l = Costar_langs.Json.lang in
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  let inputs = Array.init 2 (fun k -> Costar_langs.Lang.generate l ~seed:(30 + k) ~size:50) in
  for _ = 1 to 200 do
    ignore (Sys.opaque_identity (Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs))
  done;
  Gc.full_major ();
  Alcotest.(check (list string)) "no result file mapped" [] (mapped_result_files ())

(* --- prefork pools ----------------------------------------------------------- *)

let check_same what g expected results =
  check_int (what ^ ": result count") (Array.length expected) (Array.length results);
  Array.iteri
    (fun i r ->
      if not (same_outcome expected.(i) r) then
        Alcotest.failf "%s: file %d differs: %a vs %a" what i (pp_outcome g) expected.(i)
          (pp_outcome g) r)
    results

let sequential_with p tokenize inputs =
  Array.map
    (fun s ->
      match tokenize s with
      | Error msg -> Error msg
      | Ok w -> Ok (Parser.run_word p w))
    inputs

(* S → A | B, A → 'a', B → 'a': the word "a" is ambiguous.  Its
   tokenizer scans into a buffer, so an ambiguous tree comes back through
   the result file like the languages' trees. *)
let ambiguous_grammar =
  Grammar.define ~start:"S"
    [
      ("S", [ [ Grammar.n "A" ]; [ Grammar.n "B" ] ]);
      ("A", [ [ Grammar.t "a" ] ]);
      ("B", [ [ Grammar.t "a" ] ]);
    ]

let tokenize_as s =
  let a = Option.get (Grammar.terminal_of_name ambiguous_grammar "a") in
  let buf = Token_buf.create s in
  match String.index_opt s 'b' with
  | Some k -> Error (Printf.sprintf "no token at %d" k)
  | None ->
    String.iteri (fun k _ -> Token_buf.add buf ~kind:a ~start:k ~stop:(k + 1)) s;
    Ok (Word.of_buf buf)

(* Four language parsers and an ambiguous one, each with its own pool,
   serve 20 calls in turn; each call is a different slice of its corpus.
   Every result equals sequential parsing — trees, Ambig, Reject, lexer
   errors and a token-list word among them — the first call on a parser
   forks its two workers, and every later call forks none. *)
let test_pool_interleaved_calls () =
  let listed = "[1, {\"a\": [true, null]}, \"s\"]" in
  let setup l =
    let tokenize s =
      if s = listed then Result.map Word.of_tokens (Costar_langs.Lang.tokenize l s)
      else tokenize_of_lang l s
    in
    let corpus = corpus_for l in
    let corpus = if l == Costar_langs.Json.lang then Array.append corpus [| listed |] else corpus in
    let g = Costar_langs.Lang.grammar l in
    (l.Costar_langs.Lang.name, g, Parser.make g, tokenize, corpus,
     sequential_with (Parser.make g) tokenize corpus)
  in
  let servers =
    Array.of_list
      (List.map setup langs
      @ [
          (let corpus = [| "a"; "aa"; "ab"; "a"; "" |] in
           ( "ambiguous",
             ambiguous_grammar,
             Parser.make ambiguous_grammar,
             tokenize_as,
             corpus,
             sequential_with (Parser.make ambiguous_grammar) tokenize_as corpus ));
        ])
  in
  let seen = Hashtbl.create 8 in
  let kind = function
    | Ok (Parser.Unique _) -> "unique"
    | Ok (Parser.Ambig _) -> "ambig"
    | Ok (Parser.Reject _) -> "reject"
    | Ok (Parser.Error _) -> "error"
    | Error _ -> "lex error"
  in
  let served = Array.make (Array.length servers) false in
  for k = 0 to 19 do
    let si = k mod Array.length servers in
    let name, g, p, tokenize, corpus, expected = servers.(si) in
    let n = Array.length corpus in
    (* A slice of 2 to n files, at an offset that moves with each call. *)
    let len = 2 + (k mod (n - 1)) in
    let idx = Array.init len (fun j -> (k + j) mod n) in
    let inputs = Array.map (fun j -> corpus.(j)) idx in
    let results, st = Batch.run_prefork ~workers:2 p ~tokenize inputs in
    let what = Printf.sprintf "%s call %d" name k in
    let expected = Array.map (fun j -> expected.(j)) idx in
    check_same what g expected results;
    check_int (what ^ ": workers forked") (if served.(si) then 0 else 2) st.Batch.st_forked;
    check_int (what ^ ": files accounted") len
      (Array.fold_left (fun a ds -> a + ds.Batch.ds_files) 0 st.Batch.st_per_domain);
    served.(si) <- true;
    Array.iter (fun r -> Hashtbl.replace seen (kind r) ()) expected;
    if Array.mem listed inputs then Hashtbl.replace seen "token list" ()
  done;
  List.iter
    (fun k -> check ("the calls served a " ^ k) true (Hashtbl.mem seen k))
    [ "unique"; "ambig"; "reject"; "lex error"; "token list" ];
  Batch.shutdown ()

(* A worker that dies mid-call costs its in-flight file; the next call
   forks one replacement, and its results are identical. *)
let test_pool_replaces_a_crashed_worker () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let crash = "crash this worker" in
  let tokenize s = if s = crash then Unix._exit 3 else tokenize_of_lang l s in
  let expected = sequential_outcomes l inputs in
  let p = Parser.make g in
  let _, st = Batch.run_prefork ~workers:2 p ~tokenize inputs in
  check_int "the first call forks the pool" 2 st.Batch.st_forked;
  let with_crash = Array.concat [ Array.sub inputs 0 3; [| crash |]; Array.sub inputs 3 (Array.length inputs - 3) ] in
  let results, st = Batch.run_prefork ~workers:2 p ~tokenize with_crash in
  check_int "a warm call forks none" 0 st.Batch.st_forked;
  Array.iteri
    (fun i r ->
      if i = 3 then
        match r with
        | Error msg ->
          Alcotest.(check string) "the crashed file" "costar batch: worker process exited before reporting this file" msg
        | Ok _ -> Alcotest.fail "the crashing file produced a result"
      else if not (same_outcome expected.(if i < 3 then i else i - 1) r) then
        Alcotest.failf "file %d differs in the crashing call" i)
    results;
  let results, st = Batch.run_prefork ~workers:2 p ~tokenize inputs in
  check_int "the next call forks one replacement" 1 st.Batch.st_forked;
  check_same "after the crash" g expected results;
  let _, st = Batch.run_prefork ~workers:2 p ~tokenize inputs in
  check_int "and the call after that none" 0 st.Batch.st_forked;
  Batch.shutdown ()

(* Another tokenizer on the same parser gets a pool of its own and that
   tokenizer's results; going back forks again.  A partial application
   rebuilt for each call at one site, [fresh ()], is the same tokenizer:
   the same code over the same captured values. *)
let test_pool_follows_the_tokenizer () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = corpus_for l in
  let odd_only s = if String.length s mod 2 = 0 then Error "even length" else tokenize_of_lang l s in
  let p = Parser.make g in
  let run tokenize = Batch.run_prefork ~workers:2 p ~tokenize inputs in
  let fresh () = tokenize_of_lang l in
  let expected = sequential_outcomes l inputs in
  let expected_odd = sequential_with (Parser.make g) odd_only inputs in
  check "the two tokenizers differ on this corpus" true
    (Array.exists2 (fun a b -> not (same_outcome a b)) expected expected_odd);
  let results, st = run (fresh ()) in
  check_same "first tokenizer" g expected results;
  check_int "forked" 2 st.Batch.st_forked;
  let results, st = run (fresh ()) in
  check_same "first tokenizer, rebuilt" g expected results;
  check_int "a rebuilt partial application reuses the pool" 0 st.Batch.st_forked;
  let results, st = run odd_only in
  check_same "second tokenizer" g expected_odd results;
  check_int "another tokenizer forks a new pool" 2 st.Batch.st_forked;
  let results, st = run (fresh ()) in
  check_same "first tokenizer again" g expected results;
  check_int "and so does going back" 2 st.Batch.st_forked;
  (* A replaced pool is dropped while its parser lives: its tokenizer,
     which only that pool holds, is collected. *)
  let dropped = Weak.create 1 in
  let[@inline never] serve_once () =
    let calls = ref 0 in
    let counting s =
      incr calls;
      tokenize_of_lang l s
    in
    Weak.set dropped 0 (Some counting);
    ignore (run counting)
  in
  serve_once ();
  ignore (run (fresh ()));
  Gc.full_major ();
  check "a replaced pool's tokenizer is collected" true (Option.is_none (Weak.get dropped 0));
  Batch.shutdown ()

(* A worker rewrites its result file from the start on every call.  The
   results of a call are copies, so the next call on the same pool, which
   overwrites the same file regions, leaves them intact. *)
let test_pool_results_survive_the_next_call () =
  let l = Costar_langs.Minipy.lang in
  let g = Costar_langs.Lang.grammar l in
  let first = Array.init 4 (fun k -> Costar_langs.Lang.generate l ~seed:(40 + k) ~size:(150 + (20 * k))) in
  let second = Array.init 4 (fun k -> Costar_langs.Lang.generate l ~seed:(50 + k) ~size:(150 + (20 * k))) in
  let p = Parser.make g in
  let tokenize = tokenize_of_lang l in
  let r1, _ = Batch.run_prefork ~workers:2 p ~tokenize first in
  let r2, st = Batch.run_prefork ~workers:2 p ~tokenize second in
  check_int "the second call reuses the pool" 0 st.Batch.st_forked;
  Gc.full_major ();
  check_same "first call, after the second" g (sequential_outcomes l first) r1;
  check_same "second call" g (sequential_outcomes l second) r2;
  Batch.shutdown ()

let children pid =
  In_channel.with_open_text (Printf.sprintf "/proc/%d/task/%d/children" pid pid) In_channel.input_all
  |> String.split_on_char ' '
  |> List.filter_map int_of_string_opt

(* Gone, or a zombie that only its reaper still has to wait for. *)
let exited pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> true
  | stat ->
    let i = String.rindex stat ')' in
    i + 2 < String.length stat && stat.[i + 2] = 'Z'

let within seconds f =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go () = f () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.01; go ())) in
  go ()

(* A pool's workers read end of file once no process holds their request
   pipes: when the process that owns the pool is killed outright, no
   handler runs, and its workers still exit. *)
let test_pool_dies_with_its_owner () =
  let l = Costar_langs.Json.lang in
  let inputs = Array.sub (corpus_for l) 0 4 in
  let ready_r, ready_w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    (try
       Unix.close ready_r;
       let p = Parser.make (Costar_langs.Lang.grammar l) in
       ignore (Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs);
       ignore (Unix.write_substring ready_w "r" 0 1);
       Unix.sleep 60
     with _ -> ());
    Unix._exit 1
  | child ->
    Unix.close ready_w;
    let got = Unix.read ready_r (Bytes.create 1) 0 1 in
    Unix.close ready_r;
    let workers = children child in
    Unix.kill child Sys.sigkill;
    ignore (Unix.waitpid [] child);
    check_int "the child served a call" 1 got;
    check_int "the child owned two workers" 2 (List.length workers);
    check "its workers exit within 1 s" true (within 1.0 (fun () -> List.for_all exited workers))

(* A pool whose parser is collected closes its pipes from the parser's
   finaliser, and its workers exit; [shutdown] waits for them and for
   every live pool's workers, so no child is left. *)
let test_shutdown_leaves_no_child () =
  let l = Costar_langs.Json.lang in
  let g = Costar_langs.Lang.grammar l in
  let inputs = Array.sub (corpus_for l) 0 4 in
  let me = Unix.getpid () in
  let p = Parser.make g in
  ignore (Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs);
  let before = children me in
  let serve_and_drop () =
    ignore (Batch.run_prefork ~workers:2 (Parser.make g) ~tokenize:(tokenize_of_lang l) inputs)
  in
  serve_and_drop ();
  let dropped = List.filter (fun pid -> not (List.mem pid before)) (children me) in
  check_int "the dropped parser had two workers" 2 (List.length dropped);
  Gc.full_major ();
  Gc.full_major ();
  check "they exit once their parser is collected" true
    (within 1.0 (fun () -> List.for_all exited dropped));
  Batch.shutdown ();
  (match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  | pid, _ -> Alcotest.failf "child %d is left after shutdown" pid);
  let results, st = Batch.run_prefork ~workers:2 p ~tokenize:(tokenize_of_lang l) inputs in
  check_int "after shutdown a call forks afresh" 2 st.Batch.st_forked;
  check_same "after shutdown" g (sequential_outcomes l inputs) results;
  Batch.shutdown ()

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
          Alcotest.test_case "prefork results outlive the call" `Quick
            test_prefork_results_outlive_the_call;
          Alcotest.test_case "prefork releases descriptors and files" `Quick
            test_prefork_releases_descriptors;
          Alcotest.test_case "prefork marshalled paths = sequential" `Quick
            test_prefork_marshalled_paths;
          Alcotest.test_case "prefork checks result headers" `Quick
            test_prefork_checks_headers;
          Alcotest.test_case "prefork: room outgrown, then parsed in place" `Quick
            test_prefork_overflow_fallback;
          Alcotest.test_case "prefork learn-back = sequential warming" `Slow
            test_prefork_learn_back;
          Alcotest.test_case "learn-back replay ignores malformed entries" `Quick
            test_replay_ignores_malformed;
          Alcotest.test_case "prefork: dropped results unmapped by a major GC" `Quick
            test_prefork_dead_mappings;
          Alcotest.test_case "pool = sequential over 20 interleaved calls" `Quick
            test_pool_interleaved_calls;
          Alcotest.test_case "pool replaces a crashed worker" `Quick
            test_pool_replaces_a_crashed_worker;
          Alcotest.test_case "pool follows the tokenizer" `Quick
            test_pool_follows_the_tokenizer;
          Alcotest.test_case "pool results survive the next call" `Quick
            test_pool_results_survive_the_next_call;
          Alcotest.test_case "pool workers exit with their owner" `Quick
            test_pool_dies_with_its_owner;
          Alcotest.test_case "pool: shutdown leaves no child" `Quick
            test_shutdown_leaves_no_child;
          Alcotest.test_case "batch = sequential (4 langs, cold+warm+rounds)"
            `Slow test_batch_differential;
          Alcotest.test_case "batch token buffers = sequential (1/2/4 domains)"
            `Quick test_batch_token_buffers;
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
