(* The benchmark driver: generate a workload's inputs, set up, measure a
   closed loop with one client, check every output, and report metrics.

   One request is one input file (one [run_prefork] call over two files
   of one language, for batch-prefork).  The next request
   starts only when the previous one returns.  The clock covers the
   library calls alone; output digests and checks run with it stopped. *)

module Instr = Costar_core.Instr
module W = Workloads

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;  (** timings in reference-host time *)
  raw : metric list;  (** the same, timings as measured on this host *)
  host_factor : float;  (** reference time per unit of host time *)
  kernel_report : (string * float) list;
      (** the calibration kernel's times, to show drift in the yardstick *)
  properties : (string * string) list;
}

(* --- processes ------------------------------------------------------ *)

let read_all fd =
  let b = Buffer.create 65536 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ();
  Buffer.contents b

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

(* [in_child f] runs [f] in a forked copy of this process and returns its
   result.  The copy starts from this process's state, so lazily built
   tables that are still unforced here are built afresh there. *)
let in_child f =
  flush_all ();
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    (match write_all w (Marshal.to_string (f ()) []) 0 with
    | () -> Unix._exit 0
    | exception e ->
      prerr_endline ("perfbench child: " ^ Printexc.to_string e);
      Unix._exit 2)
  | pid -> (
    Unix.close w;
    let s = read_all r in
    Unix.close r;
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> Marshal.from_string s 0
    | _ -> failwith "perfbench: child process failed")

let now = Unix.gettimeofday

let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  float_of_int kb /. 1024.

(* --- host speed ------------------------------------------------------ *)

(* A fixed piece of work that runs no code of the repository: it
   allocates, sorts and hashes much as a parse does.  Timed between
   requests, in bursts (the first run after a request can pay for that
   request's page faults and cache misses), it tells how fast the host
   runs at that moment.  It runs in the measured process, so it keeps to
   the minor heap: no block is over 256 words, and the table is sized so
   it never resizes.  Each timed run starts on an empty minor heap and
   allocates less than it holds, so no collection falls inside it and the
   parser's heap cannot move the yardstick. *)
let kernel () =
  let acc = ref 0 in
  for r = 0 to 15 do
    let a = Array.init 256 (fun i -> ((i + r) * 7919) land 4095) in
    Array.sort compare a;
    let h = Hashtbl.create 256 in
    Array.iteri (fun i x -> Hashtbl.replace h i x) a;
    let l = List.init 256 (fun i -> a.(i) + Hashtbl.find h (255 - i)) in
    acc := !acc + List.fold_left ( + ) 0 l
  done;
  Sys.opaque_identity !acc

(* An untimed run before a burst: it takes the first touch of the minor
   heap's pages after a request (after a fork, every page written faults
   once), so the timed runs, each on an emptied minor heap, reuse pages
   already mapped. *)
let warm_kernel () =
  Gc.minor ();
  ignore (kernel ())

let kernel_every = 0.1
let kernel_burst = 5

(* The kernel's median time on the reference host (two shared vCPUs,
   OCaml 5.1.1) in a quiet period.  Timings are reported in
   reference-host time: scaled by [host_scale] of the run's own median,
   which cancels the drift of a shared host's speed.  The median, not a
   low percentile, because the timings it scales are taken over every
   request, slow ones included. *)
let reference_kernel_s = 0.0011

(* On the reference host the workloads' timings move as the kernel's
   time to this power: the log-log slope of raw timings on kernel
   medians, over thirty runs of each workload in three host states, is
   0.60-0.82 for every timing metric and workload.  Scaling by the full
   ratio over-corrects. *)
let host_exponent = 0.7

let host_scale kernel_s = (reference_kernel_s /. kernel_s) ** host_exponent

(* --- measurement ---------------------------------------------------- *)

let ratio a b = if b = 0. then 0. else a /. b
let ratio_i a b = ratio (float_of_int a) (float_of_int b)

(* With no lookups at all nothing was missed. *)
let hit_ratio hits misses = if hits + misses = 0 then 1. else ratio_i hits (hits + misses)

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile of an already sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float_of_int n)) - 1)))

(* Per-request bookkeeping shared by every phase of a run. *)
type ledger = {
  digests : int option array;  (** first digest seen per request *)
  attempts : int array;
  bad : int array;  (** attempts whose output failed or differed *)
}

(* A measured phase: every timed replay of every request. *)
type phase = {
  samples : int;
  latencies : float array;  (** one per timed replay, sorted *)
  bytes : int;  (** source bytes over every timed replay *)
  total : float;  (** time of every timed replay *)
  tokens : int;  (** over every replay *)
  words : float;  (** minor words over every replay *)
  kernel_s : float list;  (** calibration kernel times *)
}

let measure (wl : W.t) ledger tr c ~seconds =
  let lat = ref [] and n = ref 0 and bytes = ref 0 and tokens = ref 0 and words = ref 0. in
  let ks = ref [] and last_k = ref neg_infinity in
  let stop = now () +. seconds in
  while !n = 0 || now () < stop do
    if now () -. !last_k >= kernel_every then begin
      warm_kernel ();
      for _ = 1 to kernel_burst do
        Gc.minor ();
        let t0 = now () in
        ignore (kernel ());
        last_k := now ();
        ks := (!last_k -. t0) :: !ks
      done
    end;
    let i = !n mod wl.requests in
    let rq = Span.begin_request tr !n (wl.request_lang i) in
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let out = try Some (wl.op tr c i) with _ -> None in
    let t1 = now () in
    let w1 = Gc.minor_words () in
    Span.end_request tr rq;
    incr n;
    lat := (t1 -. t0) :: !lat;
    words := !words +. (w1 -. w0);
    ledger.attempts.(i) <- ledger.attempts.(i) + 1;
    match out with
    | None -> ledger.bad.(i) <- ledger.bad.(i) + 1
    | Some o -> (
      bytes := !bytes + o.W.bytes;
      tokens := !tokens + o.W.tokens;
      let d = o.W.digest () in
      match ledger.digests.(i) with
      | None -> ledger.digests.(i) <- Some d
      | Some d' -> if d <> d' then ledger.bad.(i) <- ledger.bad.(i) + 1)
  done;
  let latencies = Array.of_list !lat in
  Array.sort compare latencies;
  {
    samples = !n;
    latencies;
    bytes = !bytes;
    total = Array.fold_left ( +. ) 0. latencies;
    tokens = !tokens;
    words = !words;
    kernel_s = !ks;
  }

let throughput ph = ratio (float_of_int ph.bytes /. 1e6) ph.total

(* --- properties and checks ------------------------------------------ *)

let properties (inputs : Gen.input array) checks =
  let nl = Array.length Gen.langs in
  let files = Array.make nl 0 and bytes = Array.make nl 0 in
  Array.iter
    (fun (inp : Gen.input) ->
      files.(inp.lang) <- files.(inp.lang) + 1;
      bytes.(inp.lang) <- bytes.(inp.lang) + inp.bytes)
    inputs;
  let count p = Array.fold_left (fun a x -> if p x then a + 1 else a) 0 inputs in
  let mix a =
    String.concat ","
      (List.init nl (fun l -> Printf.sprintf "%s:%d" (Gen.lang_name l) a.(l)))
  in
  let sum f = Array.fold_left (fun a c -> a + f c) 0 checks in
  [
    ("files", string_of_int (Array.length inputs));
    ("bytes", string_of_int (Array.fold_left ( + ) 0 bytes));
    ("tokens", string_of_int (sum (fun c -> c.W.check_tokens)));
    ("files_by_lang", mix files);
    ("bytes_by_lang", mix bytes);
    ("max_depth", string_of_int (Array.fold_left (fun a c -> max a c.W.max_depth) 0 checks));
    ("deep_files", string_of_int (count (fun i -> i.Gen.deep)));
    ("token_mutants", string_of_int (count (fun i -> i.Gen.toks <> None)));
    ( "lexer_reject_share",
      Printf.sprintf "%.4f"
        (ratio_i
           (count (fun i ->
                i.Gen.toks = None
                && Result.is_error (Gen.Lang.tokenize_buf Gen.langs.(i.Gen.lang) i.Gen.text)))
           (count (fun i -> i.Gen.toks = None))) );
  ]

(* --- the run -------------------------------------------------------- *)

(* Set-up runs in at least [setup_trials] fresh processes, and in more
   while those have taken under [setup_budget_s] in all (at most
   [setup_trials_max]), so a short set-up gets as steady a median as a
   long one. *)
let setup_trials = 3
let setup_trials_max = 9
let setup_budget_s = 2.0

(* The host's speed right now: the kernel's median over a short burst. *)
let kernel_now () =
  warm_kernel ();
  median
    (List.init (3 * kernel_burst) (fun _ ->
         Gc.minor ();
         let t0 = now () in
         ignore (kernel ());
         now () -. t0))

(* Time [f] as a set-up trial: its time as measured, and in reference-host
   time by the host's speed right after it, which a later loop's kernel
   times need not share. *)
let timed_setup f =
  let t0 = now () in
  let r = f () in
  let d = now () -. t0 in
  (r, (d, d *. host_scale (kernel_now ())))

let run ?(scale = 1.0) ?(log = print_endline) ~workload ~seed ~seconds ~trace () =
  let inputs = in_child (fun () -> Gen.inputs ~scale workload seed) in
  let setup = W.setup workload in
  (* Set-up time as a fresh process pays it: each trial runs in a forked
     copy in which no scanner, grammar or cache has been built yet. *)
  let rec trials acc =
    let n = List.length acc and spent = List.fold_left (fun a (d, _) -> a +. d) 0. acc in
    if trace || n >= setup_trials_max - 1 || (n >= setup_trials - 1 && spent >= setup_budget_s)
    then acc
    else trials (in_child (fun () -> snd (timed_setup (fun () -> setup None inputs))) :: acc)
  in
  let trial_setups = trials [] in
  let sp = if trace then Some (Span.create ()) else None in
  let wl, main_setup =
    timed_setup (fun () -> Span.run sp Span.setup "setup" (fun () -> setup sp inputs))
  in
  let all_setups = main_setup :: trial_setups in
  let setup_s = median (List.map fst all_setups) in
  let setup_ref_s = median (List.map snd all_setups) in
  let ledger =
    {
      digests = Array.make wl.requests None;
      attempts = Array.make wl.requests 0;
      bad = Array.make wl.requests 0;
    }
  in
  let c = W.counts () in
  let plain = measure wl ledger None c ~seconds:(if trace then seconds /. 2. else seconds) in
  let rss = peak_rss_mb () in
  let traced =
    match sp with
    | None -> None
    | Some t ->
      let c = W.counts () in
      Instr.reset ();
      Instr.enabled := true;
      let ph = measure wl ledger sp c ~seconds:(seconds /. 2.) in
      let extra = wl.traced_extra t c in
      Instr.enabled := false;
      Some (t, c, ph, extra)
  in
  let checks = Array.init wl.requests wl.check in
  let failed = ref 0 and attempted = ref 0 in
  Array.iteri
    (fun i (ch : W.check) ->
      attempted := !attempted + ledger.attempts.(i);
      let reason =
        match ch.verdict with
        | Error msg -> Some msg
        | Ok () when ledger.attempts.(i) > 0 && ledger.digests.(i) <> Some ch.check_digest ->
          Some "timed output differs from the checked output"
        | Ok () -> None
      in
      match reason with
      | Some msg ->
        log (Printf.sprintf "check FAIL request %d: %s" i msg);
        if ledger.attempts.(i) = 0 then incr attempted;
        failed := !failed + max 1 ledger.attempts.(i)
      | None -> failed := !failed + ledger.bad.(i))
    checks;
  let props =
    properties inputs checks
    @ [
        ("workers", string_of_int wl.workers);
        ("samples", string_of_int plain.samples);
        ("setup_trials", string_of_int (List.length all_setups));
      ]
  in
  let m name unit_ value = { name; value; unit_ } in
  let raw =
    match traced with
    | None ->
      [
        m "setup_s" "s" setup_s;
        m "throughput_mb_s" "MB/s" (throughput plain);
        m "latency_p50_ms" "ms" (1e3 *. percentile plain.latencies 0.5);
        m "latency_p99_ms" "ms" (1e3 *. percentile plain.latencies 0.99);
        m "minor_words_per_token" "words" (ratio plain.words (float_of_int plain.tokens));
        m "peak_rss_mb" "MB" rss;
      ]
    | Some (t, c, ph, extra) ->
      let tot = Span.totals t in
      let call name = Span.call_time t name in
      let ns_per_token name tokens = ratio (1e9 *. fst (call name)) (float_of_int tokens) in
      let words_per_token name tokens = ratio (Span.call_words t name) (float_of_int tokens) in
      let sll_calls, sll_toks, ll_calls, _ = Instr.totals () in
      let cc = Instr.cache_totals () in
      let machine_tokens = c.W.parsed + c.W.recovered in
      let make_d, make_n = call "Parser.make" in
      let static_d, static_n = call "Parser.base_cache" in
      let nodes = Array.fold_left (fun a ch -> a + ch.W.nodes) 0 checks in
      let ntoks = Array.fold_left (fun a ch -> a + ch.W.check_tokens) 0 checks in
      let req = tot.Span.dur.(Span.request) in
      let share l = ratio tot.Span.self.(l) req in
      let extra_or name = Option.value ~default:0. (List.assoc_opt name extra) in
      [
        m "lex.scanner_compile_s" "s" (fst (call "scanner compile"));
        m "lex.ns_per_token" "ns" (ns_per_token "Lang.tokenize_buf" c.W.lexed);
        m "lex.words_per_token" "words" (words_per_token "Lang.tokenize_buf" c.W.lexed);
        m "lex.reject_share" "ratio" (ratio_i c.W.lex_rejects c.W.lex_calls);
        m "core.make_s" "s" (ratio make_d (float_of_int make_n));
        m "core.static_cache_s" "s" (ratio static_d (float_of_int static_n));
        m "core.ns_per_token" "ns" (ns_per_token "Parser.run_word" c.W.parsed);
        m "core.words_per_token" "words" (words_per_token "Parser.run_word" c.W.parsed);
        m "core.sll_calls_per_token" "ratio" (ratio_i sll_calls machine_tokens);
        m "core.lookahead_per_sll_call" "tokens" (ratio_i sll_toks sll_calls);
        m "core.ll_calls" "count" (float_of_int ll_calls);
        m "core.trans_hit_ratio" "ratio" (hit_ratio cc.Instr.trans_hits cc.Instr.trans_misses);
        m "core.closure_hit_ratio" "ratio"
          (hit_ratio cc.Instr.closure_hits cc.Instr.closure_misses);
        m "core.state_interns" "count" (float_of_int cc.Instr.state_interns);
        m "core.cache_states" "count" (ratio c.W.states (float_of_int c.W.state_reads));
        m "core.image_build_s" "s" (fst (call "learner pass") +. fst (call "Cache.save_image"));
        m "core.image_load_s" "s" (fst (call "Cache.load_image"));
        m "tree.nodes_per_token" "ratio" (ratio_i nodes ntoks);
        m "tree.max_depth" "count"
          (float_of_int (Array.fold_left (fun a ch -> max a ch.W.max_depth) 0 checks));
        m "render.ns_per_token" "ns" (ns_per_token "Tree.pp" c.W.rendered);
        m "render.words_per_token" "words" (words_per_token "Tree.pp" c.W.rendered);
        m "render.bytes_per_token" "bytes" (ratio_i c.W.render_bytes c.W.rendered);
        m "recover.ns_per_token" "ns" (ns_per_token "Recover.run_word" c.W.recovered);
        m "recover.events_per_input" "ratio" (ratio_i c.W.events c.W.rec_inputs);
      ]
      @ Array.to_list
          (Array.mapi
             (fun k name -> m ("recover.repairs_" ^ name) "count" (float_of_int c.W.repairs.(k)))
             W.repair_names)
      @ [
          m "recover.skipped_token_share" "ratio" (ratio_i c.W.skipped c.W.recovered);
          m "recover.clean_share" "ratio" (ratio_i c.W.clean c.W.rec_inputs);
          m "parallel.efficiency" "ratio" (extra_or "parallel.efficiency");
          m "parallel.imbalance" "ratio" (extra_or "parallel.imbalance");
          m "parallel.worker_new_states" "count" (extra_or "parallel.worker_new_states");
          m "parallel.result_bytes_per_token" "bytes" (extra_or "parallel.result_bytes_per_token");
        ]
      @ List.map
          (fun l -> m (Span.layers.(l) ^ ".self_share") "ratio" (share l))
          [ Span.lex; Span.core; Span.tree; Span.render; Span.recover; Span.parallel ]
      @ [
          m "unattributed_share" "ratio" (share Span.request);
          m "trace.overhead" "ratio" (ratio (throughput plain) (throughput ph) -. 1.);
        ]
  in
  (match traced with
  | Some (t, _, _, _) ->
    W.mkdir_p W.work_dir;
    let path =
      Filename.concat W.work_dir (Printf.sprintf "spans-%s-%d.jsonl" workload seed)
    in
    Span.write t path;
    log ("spans " ^ path)
  | None -> ());
  let kernel_s =
    Array.of_list
      (match traced with
      | None -> plain.kernel_s
      | Some (_, _, ph, _) -> plain.kernel_s @ ph.kernel_s)
  in
  Array.sort compare kernel_s;
  let k_p25 = percentile kernel_s 0.25 and k_p50 = percentile kernel_s 0.5 in
  let host_factor = host_scale k_p50 in
  let kernel_report =
    [
      ("host_kernel_p10_ms", 1e3 *. percentile kernel_s 0.1);
      ("host_kernel_p50_ms", 1e3 *. k_p50);
      ("host_kernel_spread", ratio (percentile kernel_s 0.75 -. k_p25) k_p50);
      ("host_kernel_runs", float_of_int (Array.length kernel_s));
    ]
  in
  let to_reference m =
    match m.unit_ with
    | _ when m.name = "setup_s" -> { m with value = setup_ref_s }
    | "s" | "ms" | "ns" -> { m with value = m.value *. host_factor }
    | "MB/s" -> { m with value = m.value /. host_factor }
    | _ -> m
  in
  {
    correct = !failed = 0;
    attempted = max 1 !attempted;
    failed = !failed;
    metrics = List.map to_reference raw;
    raw;
    host_factor;
    kernel_report;
    properties = props;
  }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else "0"

let to_json r =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_number m.value)
              m.unit_)
          r.metrics))
