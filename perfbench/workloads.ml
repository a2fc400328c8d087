(* The four workloads: how each sets up, what one timed request does, and
   the full correctness check of a request.  Every call into the library
   goes through [Span.run], so the traced run sees each layer from the
   outside; nothing here reaches into [lib/]. *)

open Costar_grammar
module Lang = Costar_langs.Lang
module P = Costar_core.Parser
module Cache = Costar_core.Cache
module R = Costar_recover.Recover
module Batch = Costar_parallel.Batch

(* Work counters, reset when the traced phase starts.  Token counts are
   per layer so ns/token divides each layer's time by the tokens that
   layer actually handled. *)
type counts = {
  mutable lexed : int;
  mutable lex_calls : int;
  mutable lex_rejects : int;
  mutable parsed : int;
  mutable recovered : int;
  mutable rec_inputs : int;
  mutable events : int;
  repairs : int array;
      (** inserted, deleted, dropped, skipped, closed, gave_up *)
  mutable skipped : int;
  mutable clean : int;
  mutable rendered : int;
  mutable render_bytes : int;
  mutable states : float;  (** DFA states of the cache, summed per input *)
  mutable state_reads : int;
}

let counts () =
  {
    lexed = 0;
    lex_calls = 0;
    lex_rejects = 0;
    parsed = 0;
    recovered = 0;
    rec_inputs = 0;
    events = 0;
    repairs = Array.make 6 0;
    skipped = 0;
    clean = 0;
    rendered = 0;
    render_bytes = 0;
    states = 0.;
    state_reads = 0;
  }

let repair_names = [| "inserted"; "deleted"; "dropped"; "skipped"; "closed"; "gave_up" |]

(* What a timed request hands back: its size, and the digest of its
   output, computed after the clock stops. *)
type outcome = {
  bytes : int;
  tokens : int;
  digest : unit -> int;
}

(* The full check of one request, run after the measurement. *)
type check = {
  verdict : (unit, string) result;
  check_digest : int;
  max_depth : int;
  nodes : int;
  check_tokens : int;
}

type t = {
  requests : int;
  op : Span.t option -> counts -> int -> outcome;
  request_lang : int -> string;
  check : int -> check;
  traced_extra : Span.t -> counts -> (string * float) list;
      (** workload-specific per-layer metrics, computed at the end of the
          traced phase *)
  workers : int;
}

let lang_of (inp : Gen.input) = Gen.langs.(inp.lang)
let count_state c p =
  c.states <- c.states +. float_of_int (Cache.num_states (P.base_cache p));
  c.state_reads <- c.state_reads + 1

let tree_digest t = Hashtbl.hash (Tree.size t, Tree.width t, Tree.depth t)

let result_digest = function
  | P.Unique t -> tree_digest t
  | P.Ambig t -> 1 + tree_digest t
  | P.Reject msg -> Hashtbl.hash ("reject", msg)
  | P.Error _ -> 2

(* A tree must spell the input back and, unless it carries repairs, be a
   derivation of the start symbol under the Fig. 3 checker, which shares
   no code with the parser. *)
let tree_check ?(derivation = true) g toks t =
  let verdict =
    if not (List.equal Token.equal (Tree.yield t) toks) then
      Error "tree yield differs from the input tokens"
    else if derivation && not (Derivation.recognizes_start g toks t) then
      Error "tree fails Derivation.recognizes_start"
    else Ok ()
  in
  { verdict; check_digest = 0; max_depth = Tree.depth t; nodes = Tree.size t;
    check_tokens = List.length toks }

let no_tree verdict =
  { verdict; check_digest = 0; max_depth = 0; nodes = 0; check_tokens = 0 }

let failed_check msg = no_tree (Error msg)

(* Force the language's grammar and compile its scanner (the lazy DFA
   construction a fresh process pays on its first input). *)
let prepare_lang tr l =
  ignore (Lang.grammar l);
  ignore (Span.run tr Span.lex "scanner compile" (fun () -> Lang.tokenize_buf l ""))

let prepare_all tr = Array.iter (prepare_lang tr) Gen.langs

(* A parser with its static prediction cache built (the cache is built on
   first use; building it here puts its cost in a span of its own). *)
let make_parser tr g =
  let p = Span.run tr Span.core "Parser.make" (fun () -> P.make g) in
  ignore (Span.run tr Span.core "Parser.base_cache" (fun () -> P.base_cache p));
  p

(* Lex (or take the mutant's tokens) and build the parser's word. *)
let word_of tr c (inp : Gen.input) =
  match inp.toks with
  | Some toks -> Ok (Span.run tr Span.tree "Word.of_tokens" (fun () -> Word.of_tokens toks))
  | None -> (
    c.lex_calls <- c.lex_calls + 1;
    match
      Span.run tr Span.lex "Lang.tokenize_buf" (fun () ->
          Lang.tokenize_buf (lang_of inp) inp.text)
    with
    | Error msg ->
      c.lex_rejects <- c.lex_rejects + 1;
      Error msg
    | Ok buf ->
      c.lexed <- c.lexed + Token_buf.length buf;
      Ok (Span.run tr Span.tree "Word.of_buf" (fun () -> Word.of_buf buf)))

let word_exn (inp : Gen.input) =
  match word_of None (counts ()) inp with
  | Ok w -> w
  | Error msg -> failwith msg

let lex_failed (inp : Gen.input) msg =
  { bytes = inp.bytes; tokens = 0; digest = (fun () -> Hashtbl.hash ("lex", msg)) }

(* --- batch-warm ----------------------------------------------------- *)

let parse tr c p w =
  c.parsed <- c.parsed + Word.length w;
  Span.run tr Span.core "Parser.run_word" (fun () -> P.run_word p w)

let batch_warm tr (inputs : Gen.input array) =
  prepare_all tr;
  let parsers =
    Array.map (fun l -> make_parser tr (Lang.grammar l)) Gen.langs
  in
  let op tr c i =
    let inp = inputs.(i) in
    match word_of tr c inp with
    | Error msg -> lex_failed inp msg
    | Ok w ->
      let p = parsers.(inp.lang) in
      let r = parse tr c p w in
      if tr <> None then count_state c p;
      { bytes = inp.bytes; tokens = Word.length w; digest = (fun () -> result_digest r) }
  in
  (* Untimed warm-up: every decision the corpus reaches is in the DFA
     cache before the first timed input. *)
  Span.run tr Span.core "warm-up pass" (fun () ->
      Array.iteri (fun i _ -> ignore (op None (counts ()) i)) inputs);
  let check i =
    let inp = inputs.(i) in
    let w = word_exn inp in
    let g = Lang.grammar (lang_of inp) in
    match P.run_word parsers.(inp.lang) w with
    | P.Unique t as r ->
      { (tree_check g (Word.to_tokens w) t) with check_digest = result_digest r }
    | r -> { (failed_check "parse is not Unique") with check_digest = result_digest r }
  in
  {
    requests = Array.length inputs;
    op;
    request_lang = (fun i -> Gen.lang_name inputs.(i).lang);
    check;
    traced_extra = (fun _ _ -> []);
    workers = 1;
  }

let tally c (o : R.outcome) =
  c.rec_inputs <- c.rec_inputs + 1;
  c.events <- c.events + List.length o.R.events;
  if o.R.events = [] then c.clean <- c.clean + 1;
  List.iter
    (fun (e : R.event) ->
      let k, skipped =
        match e.R.repair with
        | R.Inserted _ -> (0, 0)
        | R.Deleted -> (1, 1)
        | R.Dropped _ -> (2, 0)
        | R.Skipped { tokens; _ } -> (3, tokens)
        | R.Closed _ -> (4, 0)
        | R.Gave_up { tokens; _ } -> (5, tokens)
      in
      c.repairs.(k) <- c.repairs.(k) + 1;
      c.skipped <- c.skipped + skipped)
    o.R.events

(* --- oneshot-cli ---------------------------------------------------- *)

let render g t =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.fprintf ppf "%a@." (Tree.pp g) t;
  b

let oneshot tr (inputs : Gen.input array) =
  prepare_all tr;
  (* What [costar parse FILE] does after reading the file. *)
  let run tr c (inp : Gen.input) =
    let g = Lang.grammar (lang_of inp) in
    let p = make_parser tr g in
    let eng = Span.run tr Span.recover "Recover.make" (fun () -> R.make p) in
    match word_of tr c inp with
    | Error msg -> Error msg
    | Ok w ->
      c.recovered <- c.recovered + Word.length w;
      let o =
        Span.run tr Span.recover "Recover.run_word" (fun () ->
            R.run_word ~max_errors:0 eng w)
      in
      tally c o;
      if tr <> None then count_state c p;
      let out =
        match o.R.verdict with
        | R.Recovered t | R.Recovered_ambig t ->
          c.rendered <- c.rendered + Word.length w;
          let b = Span.run tr Span.render "Tree.pp" (fun () -> render g t) in
          c.render_bytes <- c.render_bytes + Buffer.length b;
          Buffer.length b
        | R.Fatal _ -> 0
      in
      Ok (w, o, out)
  in
  let digest (o : R.outcome) out =
    match o.R.verdict with
    | R.Recovered t -> Hashtbl.hash (List.length o.R.events, tree_digest t, out)
    | R.Recovered_ambig t -> Hashtbl.hash ("ambig", tree_digest t, out)
    | R.Fatal _ -> 3
  in
  let op tr c i =
    let inp = inputs.(i) in
    match run tr c inp with
    | Error msg -> lex_failed inp msg
    | Ok (w, o, out) ->
      { bytes = inp.bytes; tokens = Word.length w; digest = (fun () -> digest o out) }
  in
  let check i =
    let inp = inputs.(i) in
    match run None (counts ()) inp with
    | Error msg -> failed_check ("lexer rejected a generated input: " ^ msg)
    | Ok (w, o, out) -> (
      let g = Lang.grammar (lang_of inp) in
      let dg = digest o out in
      match o.R.verdict with
      | R.Recovered t when o.R.events = [] ->
        let ch = tree_check g (Word.to_tokens w) t in
        let verdict = if out > 0 then ch.verdict else Error "empty rendering" in
        { ch with verdict; check_digest = dg }
      | _ -> { (failed_check "parse is not a clean Unique tree") with check_digest = dg })
  in
  {
    requests = Array.length inputs;
    op;
    request_lang = (fun i -> Gen.lang_name inputs.(i).lang);
    check;
    traced_extra = (fun _ _ -> []);
    workers = 1;
  }

(* --- recover-mutants ------------------------------------------------ *)

let recover_mutants tr (inputs : Gen.input array) =
  prepare_all tr;
  let engines =
    Array.map
      (fun l ->
        let p = make_parser tr (Lang.grammar l) in
        Span.run tr Span.recover "Recover.make" (fun () -> R.make p))
      Gen.langs
  in
  let run tr c (inp : Gen.input) =
    match word_of tr c inp with
    | Error msg ->
      let d = Span.run tr Span.recover "Recover.lex_diag" (fun () -> R.lex_diag msg) in
      c.rec_inputs <- c.rec_inputs + 1;
      Error d
    | Ok w ->
      c.recovered <- c.recovered + Word.length w;
      let eng = engines.(inp.lang) in
      let o = Span.run tr Span.recover "Recover.run_word" (fun () -> R.run_word eng w) in
      tally c o;
      if tr <> None then count_state c (R.parser_of eng);
      Ok (w, o)
  in
  let digest = function
    | Error (d : Costar_lint.Diagnostic.t) -> Hashtbl.hash ("lex", d.message)
    | Ok (_, (o : R.outcome)) -> (
      let n = List.length o.R.events in
      match o.R.verdict with
      | R.Recovered t -> Hashtbl.hash (n, tree_digest t)
      | R.Recovered_ambig t -> Hashtbl.hash ("ambig", n, tree_digest t)
      | R.Fatal _ -> 3)
  in
  let op tr c i =
    let inp = inputs.(i) in
    let r = run tr c inp in
    let tokens = match r with Ok (w, _) -> Word.length w | Error _ -> 0 in
    { bytes = inp.bytes; tokens; digest = (fun () -> digest r) }
  in
  Span.run tr Span.recover "warm-up pass" (fun () ->
      Array.iteri (fun i _ -> ignore (op None (counts ()) i)) inputs);
  let check i =
    let inp = inputs.(i) in
    match run None (counts ()) inp with
    | exception e -> failed_check ("recovery raised " ^ Printexc.to_string e)
    | Error d as r ->
      let v = if d.message = "" then Error "empty lexer diagnostic" else Ok () in
      { (no_tree v) with check_digest = digest r }
    | Ok (w, o) as r ->
      let ch =
        match o.R.verdict with
        | R.Fatal _ -> failed_check "recovery verdict is Fatal"
        | R.Recovered t | R.Recovered_ambig t ->
          tree_check ~derivation:(o.R.events = []) (Lang.grammar (lang_of inp))
            (Word.to_tokens w) t
      in
      { ch with check_digest = digest r }
  in
  {
    requests = Array.length inputs;
    op;
    request_lang = (fun i -> Gen.lang_name inputs.(i).lang);
    check;
    traced_extra = (fun _ _ -> []);
    workers = 1;
  }

(* --- batch-prefork -------------------------------------------------- *)

let work_dir = Filename.concat ".bench_build" "perfbench"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ when Sys.file_exists d -> ()
  end

(* Files per [run_prefork] call: few enough that a run times a few
   hundred calls, so latency_p99_ms is not the time of a single call. *)
let prefork_chunk = 2

let prefork tr (inputs : Gen.input array) =
  prepare_all tr;
  let workers = Domain.recommended_domain_count () in
  mkdir_p work_dir;
  let nl = Array.length Gen.langs in
  let files l =
    List.filter (fun (inp : Gen.input) -> inp.lang = l) (Array.to_list inputs)
    |> List.stable_sort (fun (a : Gen.input) b -> compare a.bytes b.bytes)
    |> Array.of_list
  in
  let by_lang = Array.init nl files in
  (* A request is one [run_prefork] call over [prefork_chunk] files of one
     language, neighbours in size: every seed then has calls of the same
     sizes, since file sizes sit on a fixed ladder, and a call's workers
     get files of like size. *)
  let reqs =
    Array.concat
      (List.init nl (fun l ->
           let n = Array.length by_lang.(l) in
           Array.init
             ((n + prefork_chunk - 1) / prefork_chunk)
             (fun k ->
               let lo = k * prefork_chunk in
               (l, Array.sub by_lang.(l) lo (min prefork_chunk (n - lo))))))
  in
  let texts = Array.map (fun (_, fs) -> Array.map (fun (inp : Gen.input) -> inp.text) fs) reqs in
  let bytes =
    Array.map (fun (_, fs) -> Array.fold_left (fun a (inp : Gen.input) -> a + inp.bytes) 0 fs) reqs
  in
  let tokens = Array.make (Array.length reqs) 0 in
  let serving =
    Array.init nl (fun l ->
        let lang = Gen.langs.(l) in
        let g = Lang.grammar lang in
        let fingerprint = Grammar.fingerprint g in
        let learner = make_parser tr g in
        Span.run tr Span.core "learner pass" (fun () ->
            Array.iteri
              (fun r (l', fs) ->
                if l' = l then
                  Array.iter
                    (fun inp ->
                      let w = word_exn inp in
                      tokens.(r) <- tokens.(r) + Word.length w;
                      ignore (P.run_word learner w))
                    fs)
              reqs);
        let img =
          Filename.concat work_dir
            (Printf.sprintf "%s-%d.img" lang.Lang.name (Unix.getpid ()))
        in
        Span.run tr Span.core "Cache.save_image" (fun () ->
            Cache.save_image ~fingerprint (P.base_cache learner) img);
        let p = Span.run tr Span.core "Parser.make" (fun () -> P.make g) in
        (match
           Span.run tr Span.core "Cache.load_image" (fun () ->
               Cache.load_image ~anl:(P.analysis p) ~fingerprint img)
         with
        | Ok c -> P.set_base_cache p c
        | Error e -> failwith (Cache.image_error_to_string e));
        (* The mapping stays valid after the name is gone. *)
        Sys.remove img;
        p)
  in
  let tokenize l s = Result.map Word.of_buf (Lang.tokenize_buf Gen.langs.(l) s) in
  let stats = ref [] and latest = Array.make (Array.length reqs) [||] in
  let call tr r =
    let l = fst reqs.(r) in
    Span.run tr Span.parallel "Batch.run_prefork" (fun () ->
        Batch.run_prefork ~workers serving.(l) ~tokenize:(tokenize l) texts.(r))
  in
  let digest results =
    Hashtbl.hash
      (Array.map (function Ok r -> result_digest r | Error msg -> Hashtbl.hash msg) results)
  in
  let op tr _c r =
    let results, st = call tr r in
    if tr <> None then begin
      stats := st :: !stats;
      latest.(r) <- results
    end;
    { bytes = bytes.(r); tokens = tokens.(r); digest = (fun () -> digest results) }
  in
  let check r =
    let results, _ = call None r in
    let l, fs = reqs.(r) in
    let g = Lang.grammar Gen.langs.(l) in
    let checks =
      Array.mapi
        (fun k r ->
          let w = word_exn fs.(k) in
          match r with
          | Ok (P.Unique t) -> tree_check g (Word.to_tokens w) t
          | Ok _ -> failed_check "prefork verdict is not Unique"
          | Error msg -> failed_check ("prefork worker error: " ^ msg))
        results
    in
    let sum f = Array.fold_left (fun a c -> a + f c) 0 checks in
    {
      verdict =
        (match Array.find_opt (fun c -> Result.is_error c.verdict) checks with
        | Some c -> c.verdict
        | None -> Ok ());
      check_digest = digest results;
      max_depth = Array.fold_left (fun a c -> max a c.max_depth) 0 checks;
      nodes = sum (fun c -> c.nodes);
      check_tokens = sum (fun c -> c.check_tokens);
    }
  in
  (* parallel.*: the traced prefork calls against one traced sequential
     pass over the same corpus and parsers. *)
  let traced_extra sp c =
    let calls = !stats in
    let prefork_s, n_calls = Span.call_time sp "Batch.run_prefork" in
    let passes = float_of_int n_calls /. float_of_int (Array.length reqs) in
    let seq0 = Unix.gettimeofday () in
    Array.iteri
      (fun l files ->
        Array.iteri
          (fun k _ ->
            let rq = Span.begin_request (Some sp) (1_000_000 + k) (Gen.lang_name l) in
            (match word_of (Some sp) c files.(k) with
            | Ok w -> ignore (parse (Some sp) c serving.(l) w); count_state c serving.(l)
            | Error msg -> failwith msg);
            Span.end_request (Some sp) rq)
          files)
      by_lang;
    let seq_s = Unix.gettimeofday () -. seq0 in
    let mean l = List.fold_left ( +. ) 0. l /. float_of_int (max 1 (List.length l)) in
    let imbalance =
      mean
        (List.map
           (fun st ->
             let f = Array.map (fun d -> float_of_int d.Batch.ds_files) st.Batch.st_per_domain in
             let mx = Array.fold_left max 0. f in
             let avg = Array.fold_left ( +. ) 0. f /. float_of_int (Array.length f) in
             if avg > 0. then mx /. avg else 0.)
           calls)
    in
    let new_states =
      mean
        (List.map
           (fun st ->
             float_of_int
               (Array.fold_left (fun a d -> a + d.Batch.ds_new_states) 0 st.Batch.st_per_domain))
           calls)
    in
    let result_bytes =
      Array.fold_left
        (Array.fold_left (fun a r -> a + String.length (Marshal.to_string r [])))
        0 latest
    in
    let corpus_tokens = float_of_int (Array.fold_left ( + ) 0 tokens) in
    [
      ("parallel.efficiency", seq_s /. (prefork_s /. passes *. float_of_int workers));
      ("parallel.imbalance", imbalance);
      ("parallel.worker_new_states", new_states *. float_of_int nl);
      ("parallel.result_bytes_per_token", float_of_int result_bytes /. corpus_tokens);
    ]
  in
  {
    requests = Array.length reqs;
    op;
    request_lang = (fun r -> Gen.lang_name (fst reqs.(r)));
    check;
    traced_extra;
    workers;
  }

let setup = function
  | "batch-warm" -> batch_warm
  | "oneshot-cli" -> oneshot
  | "recover-mutants" -> recover_mutants
  | "batch-prefork" -> prefork
  | w -> invalid_arg ("unknown workload " ^ w)
