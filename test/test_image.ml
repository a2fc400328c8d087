(* Theorems-as-tests for the v3 flat cache image (DESIGN.md §13).

   The format's contract, pinned here:

   - a frozen cache survives the encode/decode round trip with identical
     canonical content AND identical state ids (re-interning in id order);
   - the mmap-backed loader and the heap decoder are result-equivalent:
     parsers running over either cache — or over no cache at all — return
     byte-identical outcomes on all four bundled languages, including
     inputs the saved cache has never seen (exercising the image
     fallthrough, lazy per-state decode, and copy-on-write row seeding);
   - the loader survives hostile bytes: truncation at every prefix length
     and a flip of every single byte are rejected with a typed error,
     never an exception, never a silent acceptance; a wrong suffix-table
     digest, a wrong version word and a cache file from the retired v2
     format each get their own exact error. *)

open Costar_grammar
open Costar_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* --- canonical cache content (as in test_parallel) ---------------------- *)

type canon_config = int * Symbols.symbol list list * Config.sctx

let canon_state fr (info : Cache.info) : canon_config list =
  List.sort compare
    (List.map
       (fun (c : Config.sll) ->
         ( c.Config.s_pred,
           Frames.frames_of_spine fr c.Config.s_frames,
           c.Config.s_ctx ))
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

let same_outcome o1 o2 =
  match o1, o2 with
  | Ok r1, Ok r2 -> Util.same_result ~messages:true r1 r2
  | Error m1, Error m2 -> String.equal m1 m2
  | _ -> false

let langs = Costar_langs.[ Json.lang; Xml.lang; Dot.lang; Minipy.lang ]

let corpus_for l =
  let gen seed size = Costar_langs.Lang.generate l ~seed ~size in
  let whole =
    List.map
      (fun (s, n) -> gen s n)
      [ (1, 20); (2, 60); (3, 120); (4, 200); (5, 90); (6, 40); (7, 150) ]
  in
  let big = gen 9 160 in
  let truncated = String.sub big 0 (String.length big / 2) in
  let garbage = gen 10 30 ^ "\x01\x01" in
  Array.of_list (whole @ [ truncated; garbage ])

let tokenize_of_lang l s =
  Result.map Word.of_buf (Costar_langs.Lang.tokenize_buf l s)

(* A parser warmed on a slice of the corpus; its base cache is the image
   source.  Warming on a strict subset leaves uncomputed DFA regions, so
   the differential below also drives the image-extension paths. *)
let warmed_parser l k inputs =
  let p = Parser.make (Costar_langs.Lang.grammar l) in
  Array.iteri
    (fun i s ->
      if i < k then
        match tokenize_of_lang l s with
        | Ok w -> ignore (Parser.run_word p w)
        | Error _ -> ())
    inputs;
  p

let fingerprint_of l = Grammar.fingerprint (Costar_langs.Lang.grammar l)

let tmp_file suffix = Filename.temp_file "costar_image" suffix

(* --- round trip ---------------------------------------------------------- *)

let test_roundtrip_equals_freeze () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let g = Costar_langs.Lang.grammar l in
      let inputs = corpus_for l in
      let p = warmed_parser l (Array.length inputs) inputs in
      let c = Parser.base_cache p in
      let fp = fingerprint_of l in
      let bytes = Cache.image_bytes ~fingerprint:fp c in
      match Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp bytes with
      | Error e ->
        Alcotest.failf "%s: round trip rejected: %s" name
          (Cache.image_error_to_string e)
      | Ok c' ->
        check_int
          (name ^ ": state count survives the round trip")
          (Cache.num_states c) (Cache.num_states c');
        (* Id-level equality: decode re-interns in id order, so every
           transition must match state id for state id. *)
        let ok = ref true in
        for sid = 0 to Cache.num_states c - 1 do
          for a = 0 to Grammar.num_terminals g - 1 do
            if Cache.trans_get c sid a <> Cache.trans_get c' sid a then
              ok := false
          done
        done;
        check (name ^ ": transition tables identical id-for-id") true !ok;
        check
          (name ^ ": canonical content survives the round trip")
          true
          (canon_of_cache g c = canon_of_cache g c'))
    langs

(* --- mmap-load = heap-load = no-cache differential ----------------------- *)

let test_mmap_heap_differential () =
  List.iter
    (fun l ->
      let name = l.Costar_langs.Lang.name in
      let inputs = corpus_for l in
      (* Save an image warmed on a strict subset of the corpus. *)
      let psrc = warmed_parser l 3 inputs in
      let fp = fingerprint_of l in
      let file = tmp_file ".img" in
      Fun.protect
        ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
        (fun () ->
          Cache.save_image ~fingerprint:fp (Parser.base_cache psrc) file;
          let expected =
            let p = Parser.make (Costar_langs.Lang.grammar l) in
            Array.map
              (fun s ->
                match tokenize_of_lang l s with
                | Error msg -> Error msg
                | Ok w -> Ok (Parser.run_word p w))
              inputs
          in
          let outcomes_with load kind =
            let p = Parser.make (Costar_langs.Lang.grammar l) in
            (match load ~anl:(Parser.analysis p) ~fingerprint:fp file with
            | Error e ->
              Alcotest.failf "%s: %s load failed: %s" name kind
                (Cache.image_error_to_string e)
            | Ok c -> Parser.set_base_cache p c);
            Array.map
              (fun s ->
                match tokenize_of_lang l s with
                | Error msg -> Error msg
                | Ok w -> Ok (Parser.run_word p w))
              inputs
          in
          let via_mmap = outcomes_with Cache.load_image "mmap" in
          let via_heap = outcomes_with Cache.load_image_heap "heap" in
          check
            (name ^ ": mmap-backed cache = no cache, result for result")
            true
            (Array.for_all2 same_outcome expected via_mmap);
          check
            (name ^ ": heap-decoded cache = no cache, result for result")
            true
            (Array.for_all2 same_outcome expected via_heap)))
    langs

let test_image_backed_flag () =
  let l = Costar_langs.Json.lang in
  let inputs = corpus_for l in
  let p = warmed_parser l 3 inputs in
  let fp = fingerprint_of l in
  let file = tmp_file ".img" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Cache.save_image ~fingerprint:fp (Parser.base_cache p) file;
      check "source cache is not image-backed" false
        (Cache.image_backed (Parser.base_cache p));
      match Cache.load_image ~anl:(Parser.analysis p) ~fingerprint:fp file with
      | Error e -> Alcotest.failf "load: %s" (Cache.image_error_to_string e)
      | Ok c ->
        check "mmap-loaded cache is image-backed" true (Cache.image_backed c));
  match
    Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp
      (Cache.image_bytes ~fingerprint:fp (Parser.base_cache p))
  with
  | Error e -> Alcotest.failf "decode: %s" (Cache.image_error_to_string e)
  | Ok c -> check "heap-decoded cache is not image-backed" false
              (Cache.image_backed c)

(* --- hostile bytes -------------------------------------------------------- *)

(* A deliberately small image (one warmed decision grammar) so exhaustive
   prefix/flip sweeps stay fast. *)
let small_image () =
  let g =
    Grammar.define ~start:"S"
      [
        ( "S",
          [ [ Grammar.n "A"; Grammar.t "c" ]; [ Grammar.n "A"; Grammar.t "d" ] ]
        );
        ("A", [ [ Grammar.t "a"; Grammar.n "A" ]; [ Grammar.t "b" ] ]);
      ]
  in
  let p = Parser.make g in
  let fp = Grammar.fingerprint g in
  (* Warm the cache along a real parse so the image carries transitions. *)
  let tok name =
    match Grammar.terminal_of_name g name with
    | Some t -> Token.make ~line:1 ~col:1 t name
    | None -> assert false
  in
  ignore (Util.run p [ tok "a"; tok "b"; tok "c" ]);
  (p, fp, Cache.image_bytes ~fingerprint:fp (Parser.base_cache p))

let test_truncation_rejected () =
  let p, fp, bytes = small_image () in
  let anl = Parser.analysis p in
  (match Cache.of_image_bytes ~anl ~fingerprint:fp bytes with
  | Ok _ -> ()
  | Error e ->
    Alcotest.failf "whole image rejected: %s" (Cache.image_error_to_string e));
  for len = 0 to String.length bytes - 1 do
    match Cache.of_image_bytes ~anl ~fingerprint:fp (String.sub bytes 0 len) with
    | Ok _ -> Alcotest.failf "truncation to %d bytes accepted" len
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "truncation to %d bytes escaped with %s" len
        (Printexc.to_string e)
  done

let test_byte_flips_rejected () =
  let p, fp, bytes = small_image () in
  let anl = Parser.analysis p in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Cache.of_image_bytes ~anl ~fingerprint:fp (Bytes.to_string b) with
    | Ok _ -> Alcotest.failf "flip of byte %d accepted" i
    | Error _ -> ()
    | exception e ->
      Alcotest.failf "flip of byte %d escaped with %s" i (Printexc.to_string e)
  done

let expect_error what expected = function
  | Error e when e = expected -> ()
  | Error e ->
    Alcotest.failf "%s: expected %s, got %s" what
      (Cache.image_error_to_string expected)
      (Cache.image_error_to_string e)
  | Ok _ -> Alcotest.failf "%s: accepted" what

let test_wrong_fingerprint_rejected () =
  let p, fp, bytes = small_image () in
  expect_error "wrong fingerprint" Cache.Img_fingerprint_mismatch
    (Cache.of_image_bytes ~anl:(Parser.analysis p)
       ~fingerprint:(fp ^ "nope") bytes)

(* The header fields the checksum does not cover still get exact errors:
   the suffix-table digest (a flip there is an incompatible build, not
   corruption) and the version word. *)
let test_digest_flip_rejected () =
  let p, fp, bytes = small_image () in
  (* Header words: magic, version, sentinel, fingerprint length, digest
     length, payload length, checksum; then the fingerprint bytes, padded
     to a word, then the digest bytes. *)
  let digest_at = 4 * (7 + ((String.length fp + 3) / 4)) in
  let b = Bytes.of_string bytes in
  Bytes.set b digest_at (Char.chr (Char.code (Bytes.get b digest_at) lxor 0xff));
  expect_error "digest flip" Cache.Img_digest_mismatch
    (Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp
       (Bytes.to_string b))

let test_version_2_rejected () =
  let p, fp, bytes = small_image () in
  let b = Bytes.of_string bytes in
  Bytes.set_int32_le b 4 2l;
  expect_error "version word 2" (Cache.Img_bad_version 2)
    (Cache.of_image_bytes ~anl:(Parser.analysis p) ~fingerprint:fp
       (Bytes.to_string b))

(* A cache file in the retired v2 format (text header, marshalled payload)
   is not an image: both loaders report bad magic, whose message names the
   fix. *)
let test_v2_file_rejected () =
  let p, fp, _ = small_image () in
  let anl = Parser.analysis p in
  let v2 =
    Printf.sprintf "costar/sll-dfa\n2\n%s\n%s\n\x84\x95\xa6\xbePAYLOAD" fp
      (Frames.fingerprint (Analysis.frames anl))
  in
  expect_error "v2 bytes" Cache.Img_bad_magic
    (Cache.of_image_bytes ~anl ~fingerprint:fp v2);
  let file = tmp_file ".cache" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin file (fun oc -> output_string oc v2);
      expect_error "v2 file" Cache.Img_bad_magic
        (Cache.load_image ~anl ~fingerprint:fp file));
  let msg = Cache.image_error_to_string Cache.Img_bad_magic in
  let fix = "costar analyze --emit-image" in
  check "bad magic names the fix" true
    (List.exists
       (fun i -> String.sub msg i (String.length fix) = fix)
       (List.init (String.length msg - String.length fix + 1) Fun.id))

let () =
  Alcotest.run "image"
    [
      ( "round-trip",
        [
          Alcotest.test_case "decode = freeze, id for id" `Quick
            test_roundtrip_equals_freeze;
          Alcotest.test_case "image-backed flag" `Quick test_image_backed_flag;
        ] );
      ( "differential",
        [
          Alcotest.test_case "mmap = heap = no cache, four languages" `Quick
            test_mmap_heap_differential;
        ] );
      ( "hostile bytes",
        [
          Alcotest.test_case "every-prefix truncation rejected" `Quick
            test_truncation_rejected;
          Alcotest.test_case "every single-byte flip rejected" `Quick
            test_byte_flips_rejected;
          Alcotest.test_case "wrong fingerprint rejected" `Quick
            test_wrong_fingerprint_rejected;
          Alcotest.test_case "digest flip is a digest mismatch" `Quick
            test_digest_flip_rejected;
          Alcotest.test_case "version word 2 is a bad version" `Quick
            test_version_2_rejected;
          Alcotest.test_case "v2 cache file is bad magic" `Quick
            test_v2_file_rejected;
        ] );
    ]
