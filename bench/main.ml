(* The CoStar-ml evaluation harness: regenerates every table and figure of
   the paper's Section 6, plus the ablations called out in DESIGN.md.

     E1  --only fig8      grammar & data-set statistics (Fig. 8, a table)
     E2  --only fig9      input size vs parse time + regression/LOWESS (Fig. 9)
     E3  --only fig10     CoStar slowdown w.r.t. Turbo/"ANTLR" (Fig. 10)
     E4  --only fig11     cold vs warm prediction cache on MiniPython (Fig. 11)
     E7  --only ll1       LL(1) conflict report: XML is not LL(1) (§6.1 claim)
     E8  --only ablation  interned ints vs extraction-style strings (§6.1)
     E9  --only earley    general-CFG baseline vs CoStar (§7 claim)
     E12 --only precache  offline DFA precompilation: analyze once, parse warm
     E13 --only intern    interned prediction hot path: cold vs warm us/token
     E14 --only pipeline  zero-copy token pipeline: list vs buffer MB/s
     E15 --only batch     multicore batch parsing: 1/2/4/8 domains vs sequential
     E16 --only e16       GC-free data plane: prefork workers over an mmapped
                          v3 cache image, with minor-allocation fences

   With no --only option, all experiments run.  --quick shrinks the corpora
   (used for smoke checks); --bechamel additionally runs one Bechamel
   micro-benchmark per experiment. *)

open Costar_grammar
open Costar_langs
module P = Costar_core.Parser
module Batch = Costar_parallel.Batch
module Stats = Costar_stats

(* The experiments time token-list parses; the list-to-cursor conversion
   is part of every timed run. *)
let parse_list ?cache p toks = P.run_word ?cache p (Word.of_tokens toks)

(* The paper tool's per-parse cache: the footnote-7 static grammar cache
   (every reachable decision's initial DFA state, seeded into the parser's
   base cache once — [Sll.prepare] is a no-op for a state already
   present), copied so nothing the parse learns outlives it. *)
let parse_cold p toks =
  let g = P.grammar p and anl = P.analysis p in
  let base = P.base_cache p in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    if Analysis.reachable anl x && List.length (Grammar.prods_of g x) > 1 then
      Costar_core.Sll.prepare g anl base x
  done;
  parse_list ~cache:(Costar_core.Cache.copy base) p toks

(* The base cache [parse_cold] copies never parses, so its first-token
   table keeps the static entries a fresh cache starts with and every copy
   starts cold.  Checked after a timed series, outside the timed region. *)
let check_cold p =
  let module C = Costar_core.Cache in
  if C.decisions (P.base_cache p) <> C.decisions (C.create (C.analysis (P.base_cache p)))
  then failwith "parse_cold: the base cache's first-token table learned entries"

(* ------------------------------------------------------------------ *)
(* Configuration                                                       *)
(* ------------------------------------------------------------------ *)

type config = {
  quick : bool;
  trials : int;
  only : string option;
  bechamel : bool;
  json_dir : string option;
}

let parse_args () =
  let quick = ref false and trials = ref 5 and only = ref None and bech = ref false in
  let json_dir = ref None in
  let spec =
    [
      ("--quick", Arg.Set quick, " shrink corpora for a fast smoke run");
      ("--trials", Arg.Set_int trials, "<n> timing trials per data point (default 5)");
      ( "--only",
        Arg.String (fun s -> only := Some s),
        "<exp> run one experiment: \
         fig8|fig9|fig10|fig11|ll1|ablation|earley|lookahead|gss|precache|intern|pipeline|batch|e16" );
      ("--bechamel", Arg.Set bech, " also run Bechamel micro-benchmarks");
      ( "--json-dir",
        Arg.String (fun s -> json_dir := Some s),
        "<dir> also write machine-readable BENCH_<experiment>.json files" );
    ]
  in
  Arg.parse (Arg.align spec)
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "costar benchmark harness";
  { quick = !quick; trials = !trials; only = !only; bechamel = !bech;
    json_dir = !json_dir }

let wants cfg name = match cfg.only with None -> true | Some o -> o = name

(* ------------------------------------------------------------------ *)
(* Corpora                                                             *)
(* ------------------------------------------------------------------ *)

type file = {
  src : string;
  toks : Token.t list;
  n_toks : int;
  bytes : int;
}

type corpus = {
  lang : Lang.t;
  files : file list;
}

(* A fresh cache warmed by parsing every file once. *)
let warmed_cache p files =
  let cache = Costar_core.Cache.create (P.analysis p) in
  List.iter (fun f -> ignore (parse_list ~cache p f.toks)) files;
  cache

(* Log-spaced size parameters from [lo] to [hi]. *)
let log_spaced ~n ~lo ~hi =
  List.init n (fun i ->
      let t = float_of_int i /. float_of_int (max 1 (n - 1)) in
      let s =
        exp
          (log (float_of_int lo)
          +. (t *. (log (float_of_int hi) -. log (float_of_int lo))))
      in
      int_of_float (Float.round s))

let build_corpus lang ~n ~lo ~hi =
  let files =
    List.mapi
      (fun i size ->
        let seed = 1000 + i in
        let src = Lang.generate lang ~seed ~size in
        let toks = Lang.tokenize_exn lang src in
        { src; toks; n_toks = List.length toks; bytes = String.length src })
      (log_spaced ~n ~lo ~hi)
  in
  { lang; files }

let corpora cfg =
  let q n = if cfg.quick then max 4 (n / 4) else n in
  let qs n = if cfg.quick then max 20 (n / 8) else n in
  [
    build_corpus Json.lang ~n:(q 25) ~lo:8 ~hi:(qs 20000);
    build_corpus Xml.lang ~n:(q 25) ~lo:8 ~hi:(qs 10000);
    build_corpus Dot.lang ~n:(q 32) ~lo:8 ~hi:(qs 6000);
    build_corpus Minipy.lang ~n:(q 20) ~lo:8 ~hi:(qs 5000);
  ]

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

let time_once ~reps f =
  let t0 = Unix.gettimeofday () in
  for _ = 1 to reps do
    ignore (f ())
  done;
  (Unix.gettimeofday () -. t0) /. float_of_int reps

let time_trials ~trials f =
  (* One untimed warm-up call lets lazy per-grammar setup (e.g. the static
     grammar cache) happen outside the measured region; it also calibrates
     a repetition count so each sample spans >= ~1ms of wall clock, keeping
     clock-resolution noise out of the small-file points.  Functions that
     measure cold-cache behaviour reset their caches inside [f], so
     repetition does not warm them. *)
  let est = time_once ~reps:1 f in
  let reps = max 1 (min 2000 (int_of_float (1e-3 /. (est +. 1e-9)))) in
  (* Settle the GC before sampling: setup work (corpus generation, cache
     warming) leaves incremental-mark debt that would otherwise be paid —
     unevenly — inside the first few measured parses. *)
  Gc.full_major ();
  let samples = Array.init trials (fun _ -> time_once ~reps f) in
  (Stats.Summary.mean samples, Stats.Summary.stdev samples)

(* Best-of-samples variant for the head-to-head engine comparison (E13):
   on a shared machine the distribution of samples is the true cost plus
   one-sided interference spikes, so the minimum estimates the true cost
   far more robustly than the mean. *)
let time_best ~trials f =
  let est = time_once ~reps:1 f in
  let reps = max 1 (min 2000 (int_of_float (1e-3 /. (est +. 1e-9)))) in
  Gc.full_major ();
  let best = ref infinity in
  for _ = 1 to trials do
    best := min !best (time_once ~reps f)
  done;
  !best

let expect_unique lang = function
  | P.Unique _ -> ()
  | r ->
    Fmt.failwith "%s corpus file did not parse uniquely: %a" lang.Lang.name
      (P.pp_result (Lang.grammar lang))
      r

(* ------------------------------------------------------------------ *)
(* E1: Fig. 8 — grammar and data-set statistics                        *)
(* ------------------------------------------------------------------ *)

let fig8 corpora =
  print_endline "== Figure 8 (table): grammar size and data set size ==";
  print_endline
    "(counts taken from the desugared BNF grammars, as in the paper)";
  Printf.printf "%-10s %6s %6s %6s %8s %10s\n" "Benchmark" "|T|" "|N|" "|P|"
    "# files" "KB";
  List.iter
    (fun { lang; files } ->
      let g = Lang.grammar lang in
      let kb =
        float_of_int (List.fold_left (fun acc f -> acc + f.bytes) 0 files)
        /. 1024.
      in
      Printf.printf "%-10s %6d %6d %6d %8d %10.1f\n" lang.Lang.name
        (Grammar.num_terminals g)
        (Grammar.num_nonterminals g)
        (Grammar.num_productions g)
        (List.length files) kb)
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E2: Fig. 9 — input size vs parse time, regression + LOWESS          *)
(* ------------------------------------------------------------------ *)

let fig9 cfg corpora =
  print_endline "== Figure 9: input size vs CoStar parse time ==";
  Printf.printf
    "(each point: best of %d trials; each parse starts from the static \
     grammar cache only,\n keeping nothing learned from earlier parses, as \
     in the paper)\n"
    cfg.trials;
  List.iter
    (fun { lang; files } ->
      let p = P.make (Lang.grammar lang) in
      Printf.printf "\n-- %s (%d files) --\n" lang.Lang.name (List.length files);
      Printf.printf "%10s %10s %12s\n" "tokens" "bytes" "best(ms)";
      let points =
        List.map
          (fun f ->
            let best =
              time_best ~trials:cfg.trials (fun () ->
                  let r = parse_cold p f.toks in
                  expect_unique lang r;
                  r)
            in
            Printf.printf "%10d %10d %12.3f\n" f.n_toks f.bytes (best *. 1e3);
            (float_of_int f.n_toks, best))
          files
      in
      check_cold p;
      let points = List.sort compare points in
      let xs = Array.of_list (List.map fst points) in
      let ys = Array.of_list (List.map snd points) in
      let fit = Stats.Regression.fit xs ys in
      let dev = Stats.Lowess.max_deviation_from_line ~f:0.3 xs ys fit in
      Printf.printf
        "regression: %.3f us/token, intercept %.3f ms, r^2 = %.4f\n"
        (fit.Stats.Regression.slope *. 1e6)
        (fit.Stats.Regression.intercept *. 1e3)
        fit.Stats.Regression.r2;
      Printf.printf "LOWESS vs regression: max deviation %.1f%% of range -> %s\n"
        (dev *. 100.)
        (* The paper's criterion is visual coincidence of the two curves;
           we quantify it as <15% of the y-range, which tolerates DOT's
           content-dependent prediction costs (edge-vs-subgraph mix). *)
        (if dev < 0.15 then "curves coincide (linear)" else "NONLINEAR"))
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E3: Fig. 10 — slowdown w.r.t. the Turbo (ANTLR stand-in) parser     *)
(* ------------------------------------------------------------------ *)

let fig10 cfg corpora =
  print_endline
    "== Figure 10: CoStar slowdown w.r.t. Turbo (ANTLR stand-in) ==";
  print_endline
    "(per file: best of the trials of each side; mean ± sd of the ratios over \
     the files)";
  Printf.printf "%-10s %25s %32s\n" "Benchmark" "parser-only slowdown"
    "(lexer+CoStar)/(lexer+Turbo)";
  List.iter
    (fun { lang; files } ->
      let g = Lang.grammar lang in
      let p = P.make g in
      let turbo = Costar_turbo.Turbo.create g in
      let ratios, pipe_ratios =
        List.split
          (List.filter_map
             (fun f ->
               if f.n_toks < 20 then None
               else begin
                 let lex_t =
                   time_best ~trials:cfg.trials (fun () ->
                       Lang.tokenize lang f.src)
                 in
                 let costar_t =
                   time_best ~trials:cfg.trials (fun () ->
                       parse_cold p f.toks)
                 in
                 let turbo_t =
                   time_best ~trials:cfg.trials (fun () ->
                       (* cold cache per trial, matching the paper's ANTLR
                          configuration (fresh parser per trial) *)
                       Costar_turbo.Turbo.reset_cache turbo;
                       Costar_turbo.Turbo.parse turbo f.toks)
                 in
                 Some
                   ( costar_t /. turbo_t,
                     (lex_t +. costar_t) /. (lex_t +. turbo_t) )
               end)
             files)
      in
      check_cold p;
      let ratios = Array.of_list ratios in
      let pipe_ratios = Array.of_list pipe_ratios in
      Printf.printf "%-10s %17.1fx ± %-5.1f %24.1fx ± %-5.1f\n" lang.Lang.name
        (Stats.Summary.mean ratios)
        (Stats.Summary.stdev ratios)
        (Stats.Summary.mean pipe_ratios)
        (Stats.Summary.stdev pipe_ratios))
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E4: Fig. 11 — cold vs pre-warmed prediction cache (MiniPython)      *)
(* ------------------------------------------------------------------ *)

let fig11 cfg corpora =
  print_endline
    "== Figure 11: cold vs pre-warmed cache, MiniPython (Turbo) ==";
  Printf.printf "(each point: best of %d trials)\n" cfg.trials;
  let { lang; files } =
    List.find (fun c -> c.lang.Lang.name = "minipy") corpora
  in
  let g = Lang.grammar lang in
  let turbo = Costar_turbo.Turbo.create g in
  let cold =
    List.map
      (fun f ->
        let t =
          time_best ~trials:cfg.trials (fun () ->
              Costar_turbo.Turbo.reset_cache turbo;
              Costar_turbo.Turbo.parse turbo f.toks)
        in
        (f, t))
      files
  in
  (* Pre-warm on the whole corpus, then measure warm times. *)
  Costar_turbo.Turbo.reset_cache turbo;
  List.iter (fun f -> ignore (Costar_turbo.Turbo.parse turbo f.toks)) files;
  let warm =
    List.map
      (fun f ->
        let t =
          time_best ~trials:cfg.trials (fun () ->
              Costar_turbo.Turbo.parse turbo f.toks)
        in
        (f, t))
      files
  in
  Printf.printf "%10s %14s %14s %16s %16s\n" "tokens" "cold(ms)" "warm(ms)"
    "cold us/token" "warm us/token";
  List.iter2
    (fun (f, tc) (_, tw) ->
      Printf.printf "%10d %14.3f %14.3f %16.2f %16.2f\n" f.n_toks (tc *. 1e3)
        (tw *. 1e3)
        (tc /. float_of_int (max 1 f.n_toks) *. 1e6)
        (tw /. float_of_int (max 1 f.n_toks) *. 1e6))
    cold warm;
  (* The paper's observation: per-token cost falls with file size when the
     cache is cold (warm-up amortizes), and the effect disappears when the
     cache is pre-warmed. *)
  let per_token l =
    List.filter_map
      (fun (f, t) ->
        if f.n_toks < 50 then None
        else Some (f.n_toks, t /. float_of_int f.n_toks))
      l
  in
  let summarize name l =
    let pts = per_token l in
    let k = List.length pts / 2 in
    let small = List.filteri (fun i _ -> i < k) pts in
    let large = List.filteri (fun i _ -> i >= k) pts in
    let mean l = Stats.Summary.mean (Array.of_list (List.map snd l)) in
    Printf.printf
      "%s: mean per-token cost, smaller half %.2f us vs larger half %.2f us (ratio %.2f)\n"
      name (mean small *. 1e6) (mean large *. 1e6)
      (mean small /. mean large)
  in
  summarize "cold" cold;
  summarize "warm" warm;
  (* CoStar-side extension: the verified parser with a reused cache. *)
  let p = P.make g in
  let shared = warmed_cache p files in
  let costar_warm =
    List.map
      (fun f ->
        let t, _ =
          time_trials ~trials:cfg.trials (fun () ->
              parse_list ~cache:shared p f.toks)
        in
        (f, t))
      files
  in
  summarize "CoStar warm (extension)" costar_warm;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E7: LL(1) conflict report                                           *)
(* ------------------------------------------------------------------ *)

let ll1_table corpora =
  print_endline
    "== E7: LL(1) generator vs the benchmark grammars (Section 6.1 claim) ==";
  Printf.printf "%-10s %12s   %s\n" "Benchmark" "conflicts" "example";
  List.iter
    (fun { lang; _ } ->
      let g = Lang.grammar lang in
      match Costar_ll1.Ll1.conflicts g with
      | [] ->
        Printf.printf "%-10s %12d   (grammar is LL(1))\n" lang.Lang.name 0
      | c :: _ as cs ->
        Printf.printf "%-10s %12d   %s\n" lang.Lang.name (List.length cs)
          (Fmt.str "%a" (Costar_ll1.Ll1.pp_conflict g) c))
    corpora;
  print_endline
    "CoStar parses all four corpora (see Fig. 9); the LL(1) baseline can build";
  print_endline
    "a table for none of them without refactoring. In particular the XML";
  print_endline
    "element rule is not LL(k) for any k (unbounded attribute lookahead).";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E8: symbol-representation ablation                                  *)
(* ------------------------------------------------------------------ *)

let ablation cfg corpora =
  print_endline
    "== E8 (ablation): interned ints vs extraction-style strings ==";
  print_endline
    "(the paper profiles extracted code and finds comparison functions dominate;";
  print_endline
    " slowdown should grow with grammar size, cf. its JSON-vs-Python discussion)";
  Printf.printf "%-10s %6s %14s %14s %10s\n" "Benchmark" "|P|" "core(ms)"
    "extracted(ms)" "slowdown";
  List.iter
    (fun { lang; files } ->
      let g = Lang.grammar lang in
      let eg = Costar_extracted.Extracted.of_grammar g in
      let p = P.make g in
      (* Mid-sized file to keep the string version affordable. *)
      let f = List.nth files (List.length files / 2) in
      let core_t, _ =
        time_trials ~trials:cfg.trials (fun () -> parse_list p f.toks)
      in
      let ext_t, _ =
        time_trials ~trials:cfg.trials (fun () ->
            Costar_extracted.Extracted.parse_tokens eg g f.toks)
      in
      Printf.printf "%-10s %6d %14.3f %14.3f %9.1fx\n" lang.Lang.name
        (Grammar.num_productions g)
        (core_t *. 1e3) (ext_t *. 1e3) (ext_t /. core_t))
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E9: general-CFG (Earley) baseline                                   *)
(* ------------------------------------------------------------------ *)

let earley cfg corpora =
  print_endline "== E9: Earley (general-CFG) baseline vs CoStar, JSON ==";
  print_endline
    "(Section 7's motivation: general parsers are slower on the deterministic";
  print_endline
    " grammars that suffice in practice; Earley here only *recognizes*)";
  let { lang; files } =
    List.find (fun c -> c.lang.Lang.name = "json") corpora
  in
  let g = Lang.grammar lang in
  let p = P.make g in
  Printf.printf "%10s %14s %14s %10s\n" "tokens" "CoStar(ms)" "Earley(ms)"
    "ratio";
  List.iter
    (fun f ->
      if f.n_toks >= 50 && f.n_toks <= 3000 then begin
        let costar_t, _ =
          time_trials ~trials:cfg.trials (fun () -> parse_list p f.toks)
        in
        let earley_t, _ =
          time_trials ~trials:cfg.trials (fun () ->
              Costar_earley.Recognizer.accepts g f.toks)
        in
        Printf.printf "%10d %14.3f %14.3f %9.1fx\n" f.n_toks (costar_t *. 1e3)
          (earley_t *. 1e3)
          (earley_t /. costar_t)
      end)
    files;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E11 (supplementary): graph-structured stack ablation                 *)
(* ------------------------------------------------------------------ *)

let gss_ablation cfg corpora =
  print_endline "== E11 (supplementary): GSS vs list-stack SLL prediction ==";
  print_endline
    "(Section 3.5: CoStar forgoes ANTLR's graph-structured stack and 'may be";
  print_endline
    " less space-efficient'.  Implementing the GSS exposed a residue-frame";
  print_endline
    " accumulation in the list-stack engine that made long scans quadratic;";
  print_endline
    " with that fixed, both engines stay flat on the paper's XML element";
  print_endline
    " decision however many attributes prediction must scan, and the GSS's";
  print_endline
    " remaining contribution is physical sharing of stack structure)";
  let g =
    match
      Costar_ebnf.Parse.grammar_of_string ~start:"element"
        {|
          element : '<' NAME attr* '>' | '<' NAME attr* '/>' ;
          attr    : NAME '=' STRING ;
        |}
    with
    | Ok g -> g
    | Error msg -> failwith msg
  in
  let x =
    match Grammar.nonterminal_of_name g "element" with
    | Some x -> x
    | None -> assert false
  in
  let anl = Analysis.make g in
  Printf.printf "%8s %14s %14s %12s %12s %10s
" "attrs" "list-SLL(us)"
    "GSS(us)" "list states" "GSS states" "GSS peak";
  List.iter
    (fun n_attrs ->
      let w =
        Grammar.tokens g
          ([ "<"; "NAME" ]
          @ List.concat (List.init n_attrs (fun _ -> [ "NAME"; "="; "STRING" ]))
          @ [ "/>" ])
      in
      let list_t, _ =
        time_trials ~trials:cfg.trials (fun () ->
            Costar_core.Sll.predict g anl
              (Costar_core.Cache.create anl)
              x (Word.of_tokens w) 0)
      in
      (* Count states of a single cold run. *)
      let cache = Costar_core.Cache.create anl in
      ignore (Costar_core.Sll.predict g anl cache x (Word.of_tokens w) 0);
      let e = Costar_gss.Gss.create g in
      let gss_t, _ =
        time_trials ~trials:cfg.trials (fun () ->
            Costar_gss.Gss.reset e;
            Costar_gss.Gss.predict e x w)
      in
      Costar_gss.Gss.reset e;
      ignore (Costar_gss.Gss.predict e x w);
      let _, gss_states, gss_peak = Costar_gss.Gss.stats e in
      Printf.printf "%8d %14.2f %14.2f %12d %12d %10d
" n_attrs
        (list_t *. 1e6) (gss_t *. 1e6)
        (Costar_core.Cache.num_states cache)
        gss_states gss_peak)
    [ 2; 8; 32; 128; 512 ];
  (* Sanity on a real corpus: verdict-identical engines (also covered by the
     test suite); report node sharing on MiniPython. *)
  let { lang; files } =
    List.find (fun c -> c.lang.Lang.name = "minipy") corpora
  in
  let mg = Lang.grammar lang in
  let e = Costar_gss.Gss.create mg in
  let f = List.nth files (List.length files / 2) in
  List.iter
    (fun x ->
      if List.length (Grammar.prods_of mg x) > 1 then
        ignore (Costar_gss.Gss.predict e x f.toks))
    (List.init (Grammar.num_nonterminals mg) Fun.id);
  let nodes, states, peak = Costar_gss.Gss.stats e in
  Printf.printf
    "minipy (all decisions on one mid-size file): %d shared stack nodes, %d DFA states, peak %d configs/state
"
    nodes states peak;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E10 (supplementary): prediction lookahead statistics                *)
(* ------------------------------------------------------------------ *)

let lookahead cfg corpora =
  ignore cfg;
  print_endline "== E10 (supplementary): prediction lookahead statistics ==";
  print_endline
    "(the empirical basis of Section 2's efficiency claim: adaptive decisions";
  print_endline " almost always resolve within one or two tokens of lookahead)";
  Printf.printf "%-10s %10s %12s %12s %10s %12s
" "Benchmark" "tokens"
    "decisions" "la tokens" "avg la" "LL calls";
  List.iter
    (fun { lang; files } ->
      let p = P.make (Lang.grammar lang) in
      Costar_core.Instr.reset ();
      Costar_core.Instr.enabled := true;
      let total_tokens =
        List.fold_left
          (fun acc f ->
            ignore (parse_list p f.toks);
            acc + f.n_toks)
          0 files
      in
      Costar_core.Instr.enabled := false;
      let sll_calls, sll_tokens, ll_calls, _ = Costar_core.Instr.totals () in
      Printf.printf "%-10s %10d %12d %12d %10.2f %12d
" lang.Lang.name
        total_tokens sll_calls sll_tokens
        (float_of_int sll_tokens /. float_of_int (max 1 sll_calls))
        ll_calls)
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E12: offline DFA precompilation (the tentpole of the static        *)
(* prediction analyzer): analyze once, encode the prediction-DFA     *)
(* cache as a v3 image, and start parsing from its decode instead of  *)
(* from an empty cache.                                               *)
(* ------------------------------------------------------------------ *)

let precache cfg corpora =
  print_endline
    "== E12: offline DFA precompilation (analyze once, parse warm) ==";
  print_endline
    "(the static analyzer explores each decision's SLL closure offline; the";
  print_endline
    " DFA states it interns are exactly the runtime's cache entries, so a";
  print_endline
    " decoded v3 image of the analysis cache removes first-parse cold misses)";
  Printf.printf "%-10s %11s %9s %16s %16s %12s %12s %8s\n" "Benchmark"
    "analyze(ms)" "file(KB)" "cold miss(s/t)" "warm miss(s/t)" "cold(ms)"
    "warm(ms)" "speedup";
  List.iter
    (fun { lang; files } ->
      let g = Lang.grammar lang in
      let fp = Grammar.fingerprint g in
      let t0 = Unix.gettimeofday () in
      let r = Costar_predict_analysis.Analyze.analyze g in
      let analyze_t = Unix.gettimeofday () -. t0 in
      let blob =
        Costar_core.Cache.image_bytes ~fingerprint:fp
          r.Costar_predict_analysis.Analyze.cache
      in
      let p = P.make g in
      let anl = P.analysis p in
      let pre =
        match Costar_core.Cache.of_image_bytes ~anl ~fingerprint:fp blob with
        | Ok c -> c
        | Error e -> failwith (Costar_core.Cache.image_error_to_string e)
      in
      (* One pass over the whole corpus from a given starting cache; the
         number of states/transitions the parser adds on top of it is its
         DFA-cache miss count.  The cache store is mutable, so the
         before-counts must be snapshot before parsing, and each pass works
         on a private copy so timing passes still start from the intended
         cache. *)
      let parse_all cache =
        List.iter (fun f -> ignore (parse_list ~cache p f.toks)) files
      in
      let miss cache0 =
        let c = Costar_core.Cache.copy cache0 in
        let s0 = Costar_core.Cache.num_states c in
        let t0 = Costar_core.Cache.num_transitions c in
        parse_all c;
        ( Costar_core.Cache.num_states c - s0,
          Costar_core.Cache.num_transitions c - t0 )
      in
      let cold_s, cold_t' = miss (Costar_core.Cache.create anl) in
      let warm_s, warm_t' = miss pre in
      let cold_time, _ =
        time_trials ~trials:cfg.trials (fun () ->
            parse_all (Costar_core.Cache.create anl))
      in
      let warm_time, _ =
        time_trials ~trials:cfg.trials (fun () ->
            parse_all (Costar_core.Cache.copy pre))
      in
      Printf.printf "%-10s %11.1f %9.1f %10d/%-5d %10d/%-5d %12.3f %12.3f %7.2fx\n"
        lang.Lang.name (analyze_t *. 1e3)
        (float_of_int (String.length blob) /. 1024.)
        cold_s cold_t' warm_s warm_t' (cold_time *. 1e3) (warm_time *. 1e3)
        (cold_time /. warm_time))
    corpora;
  print_endline
    "(miss s/t = DFA states/transitions the corpus parse adds beyond its";
  print_endline
    " starting cache; zero warm misses means the analyzer's offline closure";
  print_endline
    " already interned every state and transition the corpus parse needs)";
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E13: interned prediction hot path — cold vs warm per-token cost     *)
(* ------------------------------------------------------------------ *)

let intern_bench cfg corpora =
  print_endline
    "== E13: interned prediction hot path (hash-consed frames, dense config \
     ids, array DFA stepping) ==";
  print_endline
    "(cold = each parse starts from the static grammar cache, keeping nothing;";
  print_endline
    " warm = shared cache pre-warmed on the whole corpus; largest file per \
     language)";
  Printf.printf "%-10s %8s %10s %10s %13s %13s\n" "Benchmark" "tokens"
    "cold(ms)" "warm(ms)" "cold us/tok" "warm us/tok";
  List.iter
    (fun { lang; files } ->
      let p = P.make (Lang.grammar lang) in
      let f = List.nth files (List.length files - 1) in
      let cold_t =
        time_best ~trials:(max 7 cfg.trials) (fun () ->
            let r = parse_cold p f.toks in
            expect_unique lang r;
            r)
      in
      let shared = warmed_cache p files in
      let warm_t =
        time_best ~trials:(max 7 cfg.trials) (fun () ->
            parse_list ~cache:shared p f.toks)
      in
      let us_per_tok t = t /. float_of_int (max 1 f.n_toks) *. 1e6 in
      Printf.printf "%-10s %8d %10.3f %10.3f %13.3f %13.3f\n" lang.Lang.name
        f.n_toks (cold_t *. 1e3) (warm_t *. 1e3) (us_per_tok cold_t)
        (us_per_tok warm_t);
      Bench_json.record ~bench:"intern"
        (lang.Lang.name ^ ".cold_us_per_tok") (us_per_tok cold_t);
      Bench_json.record ~bench:"intern"
        (lang.Lang.name ^ ".warm_us_per_tok") (us_per_tok warm_t);
      (* One instrumented warm parse: with the DFA fully learned, the hot
         loop should be all transition hits and no closure work. *)
      Costar_core.Instr.reset ();
      Costar_core.Instr.enabled := true;
      ignore (parse_list ~cache:shared p f.toks);
      Costar_core.Instr.enabled := false;
      let c = Costar_core.Instr.cache_totals () in
      Printf.printf
        "           warm cache: trans %d hits / %d misses; closure memo %d \
         hits / %d misses; %d state interns\n"
        c.Costar_core.Instr.trans_hits c.Costar_core.Instr.trans_misses
        c.Costar_core.Instr.closure_hits c.Costar_core.Instr.closure_misses
        c.Costar_core.Instr.state_interns)
    corpora;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E14: zero-copy token pipeline — end-to-end lex+parse throughput     *)
(* ------------------------------------------------------------------ *)

let pipeline_bench cfg corpora =
  print_endline
    "== E14: zero-copy token pipeline (equivalence-classed DFA, \
     struct-of-arrays buffer, array cursor) ==";
  print_endline
    "(end-to-end source-to-tree: tokenize + parse per sample, warm shared \
     prediction cache;";
  print_endline
    " list = legacy Token.t-list pipeline, buf = compiled scanner into the \
     token buffer;";
  print_endline " min over samples, largest file per language)";
  Printf.printf "%-10s %9s %8s %10s %10s %9s %9s %8s\n" "Benchmark" "bytes"
    "tokens" "list(ms)" "buf(ms)" "listMB/s" "bufMB/s" "speedup";
  List.iter
    (fun { lang; files } ->
      let p = P.make (Lang.grammar lang) in
      let f = List.nth files (List.length files - 1) in
      (* Warm the shared prediction cache on the whole corpus, so the
         measured region is the lex+parse hot path, not cache learning. *)
      let shared = warmed_cache p files in
      let trials = max 7 cfg.trials in
      let list_t =
        time_best ~trials (fun () ->
            let toks = Lang.tokenize_exn lang f.src in
            parse_list ~cache:shared p toks)
      in
      let buf_t =
        time_best ~trials (fun () ->
            let buf = Lang.tokenize_buf_exn lang f.src in
            P.run_word ~cache:shared p (Word.of_buf buf))
      in
      let mb_s t = float_of_int f.bytes /. t /. 1e6 in
      Printf.printf "%-10s %9d %8d %10.3f %10.3f %9.1f %9.1f %7.2fx\n"
        lang.Lang.name f.bytes f.n_toks (list_t *. 1e3) (buf_t *. 1e3)
        (mb_s list_t) (mb_s buf_t) (list_t /. buf_t);
      Bench_json.record ~bench:"pipeline"
        (lang.Lang.name ^ ".list_mb_s") (mb_s list_t);
      Bench_json.record ~bench:"pipeline"
        (lang.Lang.name ^ ".buf_mb_s") (mb_s buf_t);
      Bench_json.record ~bench:"pipeline"
        (lang.Lang.name ^ ".buf_speedup") (list_t /. buf_t);
      (* Lex-only split, plus the buffer scan's steady-state allocation. *)
      let lex_list_t =
        time_best ~trials (fun () -> Lang.tokenize_exn lang f.src)
      in
      let lex_buf_t =
        time_best ~trials (fun () -> Lang.tokenize_buf_exn lang f.src)
      in
      let reps = 5 in
      let m0 = Gc.minor_words () in
      for _ = 1 to reps do
        ignore (Lang.tokenize_buf_exn lang f.src)
      done;
      let minor_per_tok =
        (Gc.minor_words () -. m0) /. float_of_int (reps * max 1 f.n_toks)
      in
      Printf.printf
        "           lex only: list %.2f Mtok/s, buf %.2f Mtok/s (%.2fx); \
         buf steady-state %.3f minor words/token\n"
        (float_of_int f.n_toks /. lex_list_t /. 1e6)
        (float_of_int f.n_toks /. lex_buf_t /. 1e6)
        (lex_list_t /. lex_buf_t) minor_per_tok;
      Bench_json.record ~bench:"pipeline"
        (lang.Lang.name ^ ".buf_minor_words_per_tok") minor_per_tok)
    corpora;
  print_newline ()

(* A dedicated, larger corpus for the parallel experiments (E15/E16):
   scaling is only measurable when per-file parse work dominates the fixed
   per-worker costs (domain spawn or fork, snapshot freeze, and OCaml 5's
   cross-domain minor-GC synchronization), so these use files an order of
   magnitude bigger than the fig9 sweep. *)
let batch_corpora cfg =
  let n = if cfg.quick then 12 else 24 in
  let h x = if cfg.quick then x / 2 else x in
  [
    build_corpus Json.lang ~n ~lo:2000 ~hi:(h 40000);
    build_corpus Xml.lang ~n ~lo:2000 ~hi:(h 20000);
    build_corpus Dot.lang ~n ~lo:2000 ~hi:(h 12000);
    build_corpus Minipy.lang ~n:(min n 16) ~lo:1000 ~hi:(h 6000);
  ]

(* ------------------------------------------------------------------ *)
(* E16: GC-free data plane — prefork processes over an mmapped image   *)
(* ------------------------------------------------------------------ *)

let prefork_bench cfg =
  (* Unix.fork is only legal while no other domain has ever been spawned
     in this process, so main () runs E16 before E15's run_batch calls,
     and inside E16 every fork-based timing completes (pass 1, all
     languages) before the Domain-based comparison column (pass 2). *)
  let corpora = batch_corpora cfg in
  print_endline
    "== E16: GC-free data plane (prefork worker processes over an mmapped \
     v3 cache image) ==";
  print_endline
    "(corpus family of E15; prediction DFA learned once, frozen to a flat \
     int32-LE image, served read-only";
  print_endline
    " via mmap; seq = warm sequential run_word loop, Np = run_prefork over \
     N forked workers sharing the";
  print_endline
    " mapping; min over samples; per-language allocation fences below \
     each row)";
  Printf.printf "%-10s %6s %7s %9s %9s %9s %9s %9s %8s\n" "Benchmark"
    "files" "MB" "seq(ms)" "1p(ms)" "2p(ms)" "4p(ms)" "MB/s@4p" "x@4p";
  let worker_counts = [ 1; 2; 4 ] in
  let json_speedup = ref nan and json_words = ref nan in
  (* Pass 1 (fork-only): sequential baseline, prefork scaling over the
     mmapped image, and Gc.minor_words allocation fences. *)
  let pass2 =
    List.map
      (fun { lang; files } ->
        let inputs = Array.of_list (List.map (fun f -> f.src) files) in
        let bytes = List.fold_left (fun a f -> a + f.bytes) 0 files in
        let g = Lang.grammar lang in
        let tokenize s = Result.map Word.of_buf (Lang.tokenize_buf lang s) in
        (* Learn the whole corpus once, freeze the DFA to a flat image,
           and serve everything below from the read-only mapping. *)
        let learner = P.make g in
        Array.iter
          (fun src ->
            match tokenize src with
            | Ok w -> ignore (P.run_word learner w)
            | Error msg -> failwith msg)
          inputs;
        let img = Filename.temp_file "costar_e16_" ".img" in
        Costar_core.Cache.save_image ~fingerprint:(Grammar.fingerprint g)
          (P.base_cache learner) img;
        let p = P.make g in
        (match
           Costar_core.Cache.load_image ~anl:(P.analysis p)
             ~fingerprint:(Grammar.fingerprint g) img
         with
        | Ok c -> P.set_base_cache p c
        | Error e -> failwith (Costar_core.Cache.image_error_to_string e));
        let trials = max 5 cfg.trials in
        let seq_t =
          time_best ~trials (fun () ->
              Array.iter
                (fun src ->
                  match tokenize src with
                  | Ok w -> ignore (P.run_word p w)
                  | Error msg -> failwith msg)
                inputs)
        in
        let pre_ts =
          List.map
            (fun w ->
              ( w,
                time_best ~trials (fun () ->
                    ignore (Batch.run_prefork ~workers:w p ~tokenize inputs))
              ))
            worker_counts
        in
        let t_at w = List.assoc w pre_ts in
        let speedup4 = seq_t /. t_at 4 in
        if lang.Lang.name = "json" then json_speedup := speedup4;
        Printf.printf
          "%-10s %6d %7.2f %9.2f %9.2f %9.2f %9.2f %9.1f %7.2fx\n"
          lang.Lang.name (Array.length inputs)
          (float_of_int bytes /. 1e6)
          (seq_t *. 1e3) (t_at 1 *. 1e3) (t_at 2 *. 1e3) (t_at 4 *. 1e3)
          (float_of_int bytes /. t_at 4 /. 1e6)
          speedup4;
        Bench_json.record ~bench:"E16" (lang.Lang.name ^ ".seq_ms")
          (seq_t *. 1e3);
        List.iter
          (fun w ->
            Bench_json.record ~bench:"E16"
              (Printf.sprintf "%s.speedup_%dp" lang.Lang.name w)
              (seq_t /. t_at w))
          worker_counts;
        (* Allocation fences, min over samples.  The warm data plane (DFA
           scan into a cleared off-heap buffer) must allocate nothing per
           token; warm end-to-end additionally runs the machine, whose
           per-step frames and states are heap records (the tree's events
           go to an off-heap buffer), so it is gated as a budget rather
           than at zero. *)
        let f = List.nth files (List.length files - 1) in
        let min_words reps fn =
          let best = ref infinity in
          for _ = 1 to trials do
            let m0 = Gc.minor_words () in
            for _ = 1 to reps do
              fn ()
            done;
            let w = (Gc.minor_words () -. m0) /. float_of_int reps in
            if w < !best then best := w
          done;
          !best
        in
        let e2e_words =
          min_words 3 (fun () ->
              match tokenize f.src with
              | Ok w -> ignore (P.run_word p w)
              | Error msg -> failwith msg)
          /. float_of_int (max 1 f.n_toks)
        in
        let scan_words =
          match Lang.scanner lang with
          | None -> nan
          | Some sc -> (
            match Costar_lex.Scanner.compile sc g with
            | Error msg -> failwith msg
            | Ok compiled ->
              let buf = Token_buf.create_for_input f.src in
              Costar_lex.Scanner.scan_into compiled buf f.src;
              let n = max 1 (Token_buf.length buf) in
              min_words 3 (fun () ->
                  Token_buf.clear buf;
                  Costar_lex.Scanner.scan_into compiled buf f.src)
              /. float_of_int n)
        in
        if Float.is_nan scan_words then
          Printf.printf
            "           alloc: end-to-end %.2f minor words/token (tree + \
             machine; scanner not a plain DFA)\n"
            e2e_words
        else begin
          Printf.printf
            "           alloc: scan %.3f minor words/token (data plane), \
             end-to-end %.2f minor words/token (tree + machine)\n"
            scan_words e2e_words;
          Bench_json.record ~bench:"E16"
            (lang.Lang.name ^ ".scan_minor_words_per_tok")
            scan_words
        end;
        if lang.Lang.name = "json" then json_words := e2e_words;
        Bench_json.record ~bench:"E16"
          (lang.Lang.name ^ ".e2e_minor_words_per_tok")
          e2e_words;
        Sys.remove img;
        (lang, p, tokenize, inputs, seq_t))
      corpora
  in
  (* Pass 2 (domains): the head-to-head comparison, after every fork above
     has completed. *)
  List.iter
    (fun (lang, p, tokenize, inputs, seq_t) ->
      let trials = max 5 cfg.trials in
      let dom_t =
        time_best ~trials (fun () ->
            ignore (Batch.run_batch ~domains:4 p ~tokenize inputs))
      in
      Printf.printf
        "%-10s 4-domain head-to-head: %.2f ms (%.2fx vs seq; prefork x@4p \
         above)\n"
        lang.Lang.name (dom_t *. 1e3) (seq_t /. dom_t);
      Bench_json.record ~bench:"E16"
        (lang.Lang.name ^ ".speedup_4d") (seq_t /. dom_t))
    pass2;
  (* Stable machine-readable lines for the CI gates. *)
  Printf.printf "E16-gate json 4-worker prefork speedup: %.2fx\n"
    !json_speedup;
  Printf.printf "E16-gate json warm minor words per token: %.2f\n"
    !json_words;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* E15: multicore batch parsing — domains vs sequential throughput     *)
(* ------------------------------------------------------------------ *)

let batch_bench cfg =
  let corpora = batch_corpora cfg in
  print_endline
    "== E15: multicore batch parsing (frozen DFA snapshot + per-domain \
     overlays) ==";
  print_endline
    "(whole corpus tokenized+parsed per sample, warm shared prediction \
     cache; min over samples;";
  Printf.printf
    " seq = sequential run_word loop, Nd = run_batch over N domains; host \
     reports %d recommended domain(s))\n"
    (Domain.recommended_domain_count ());
  let domain_counts = [ 1; 2; 4; 8 ] in
  Printf.printf "%-10s %6s %7s %9s %9s %9s %9s %9s %9s %9s\n" "Benchmark"
    "files" "MB" "seq(ms)" "1d(ms)" "2d(ms)" "4d(ms)" "8d(ms)" "MB/s@4"
    "x@4";
  let json_speedup = ref nan in
  List.iter
    (fun { lang; files } ->
      let inputs = Array.of_list (List.map (fun f -> f.src) files) in
      let bytes = List.fold_left (fun a f -> a + f.bytes) 0 files in
      let p = P.make (Lang.grammar lang) in
      let tokenize s = Result.map Word.of_buf (Lang.tokenize_buf lang s) in
      (* Saturate the shared cache on the whole corpus first, so every
         configuration measures the same warm steady state and absorb
         between samples is a no-op. *)
      Array.iter
        (fun src ->
          match tokenize src with
          | Ok w -> ignore (P.run_word p w)
          | Error msg -> failwith msg)
        inputs;
      let trials = max 5 cfg.trials in
      let seq_t =
        time_best ~trials (fun () ->
            Array.iter
              (fun src ->
                match tokenize src with
                | Ok w -> ignore (P.run_word p w)
                | Error msg -> failwith msg)
              inputs)
      in
      let par_ts =
        List.map
          (fun d ->
            ( d,
              time_best ~trials (fun () ->
                  ignore (Batch.run_batch ~domains:d p ~tokenize inputs)) ))
          domain_counts
      in
      let t_at d = List.assoc d par_ts in
      let speedup4 = seq_t /. t_at 4 in
      if lang.Lang.name = "json" then json_speedup := speedup4;
      Printf.printf
        "%-10s %6d %7.2f %9.2f %9.2f %9.2f %9.2f %9.2f %9.1f %8.2fx\n"
        lang.Lang.name (Array.length inputs)
        (float_of_int bytes /. 1e6)
        (seq_t *. 1e3)
        (t_at 1 *. 1e3)
        (t_at 2 *. 1e3)
        (t_at 4 *. 1e3)
        (t_at 8 *. 1e3)
        (float_of_int bytes /. t_at 4 /. 1e6)
        speedup4;
      Bench_json.record ~bench:"batch"
        (lang.Lang.name ^ ".seq_ms") (seq_t *. 1e3);
      List.iter
        (fun d ->
          Bench_json.record ~bench:"batch"
            (Printf.sprintf "%s.speedup_%dd" lang.Lang.name d)
            (seq_t /. t_at d))
        domain_counts;
      Bench_json.record ~bench:"batch"
        (lang.Lang.name ^ ".mb_s_4d")
        (float_of_int bytes /. t_at 4 /. 1e6))
    corpora;
  (* Stable machine-readable line for the CI throughput gate. *)
  Printf.printf "E15-gate json 4-domain speedup: %.2fx\n" !json_speedup;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks (one Test.make per experiment)            *)
(* ------------------------------------------------------------------ *)

let bechamel_run corpora =
  let open Bechamel in
  let open Toolkit in
  print_endline "== Bechamel micro-benchmarks (one per experiment) ==";
  let mid { lang; files } = (lang, List.nth files (List.length files / 2)) in
  let json = List.find (fun c -> c.lang.Lang.name = "json") corpora in
  let minipy = List.find (fun c -> c.lang.Lang.name = "minipy") corpora in
  let tests =
    (* fig9: CoStar parse per language *)
    List.map
      (fun c ->
        let lang, f = mid c in
        let p = P.make (Lang.grammar lang) in
        Test.make
          ~name:(Printf.sprintf "fig9/costar-%s" lang.Lang.name)
          (Staged.stage (fun () -> ignore (parse_list p f.toks))))
      corpora
    @ (* fig10: turbo counterpart *)
    List.map
      (fun c ->
        let lang, f = mid c in
        let turbo = Costar_turbo.Turbo.create (Lang.grammar lang) in
        Test.make
          ~name:(Printf.sprintf "fig10/turbo-%s" lang.Lang.name)
          (Staged.stage (fun () ->
               Costar_turbo.Turbo.reset_cache turbo;
               ignore (Costar_turbo.Turbo.parse turbo f.toks))))
      corpora
    @
    let lang, f = mid minipy in
    let turbo_warm = Costar_turbo.Turbo.create (Lang.grammar lang) in
    ignore (Costar_turbo.Turbo.parse turbo_warm f.toks);
    let jlang, jf = mid json in
    let jp = P.make (Lang.grammar jlang) in
    let jeg = Costar_extracted.Extracted.of_grammar (Lang.grammar jlang) in
    [
      (* fig11: warm-cache parse *)
      Test.make ~name:"fig11/turbo-minipy-warm"
        (Staged.stage (fun () ->
             ignore (Costar_turbo.Turbo.parse turbo_warm f.toks)));
      (* fig8: the grammar-statistics computation itself *)
      Test.make ~name:"fig8/stats-json"
        (Staged.stage (fun () ->
             let g = Lang.grammar jlang in
             ignore
               ( Grammar.num_terminals g,
                 Grammar.num_nonterminals g,
                 Grammar.num_productions g )));
      (* ll1: conflict computation on XML *)
      Test.make ~name:"ll1/conflicts-xml"
        (Staged.stage
           (let xg = Lang.grammar Xml.lang in
            fun () -> ignore (Costar_ll1.Ll1.conflicts xg)));
      (* ablation: extraction-style parse *)
      Test.make ~name:"ablation/extracted-json"
        (Staged.stage (fun () ->
             ignore
               (Costar_extracted.Extracted.parse_tokens jeg
                  (Lang.grammar jlang) jf.toks)));
      (* earley baseline *)
      Test.make ~name:"earley/recognize-json"
        (Staged.stage (fun () ->
             ignore
               (Costar_earley.Recognizer.accepts (Lang.grammar jlang) jf.toks)));
      Test.make ~name:"fig9/costar-json-warmcache"
        (Staged.stage
           (let cache = warmed_cache jp [ jf ] in
            fun () -> ignore (parse_list ~cache jp jf.toks)));
    ]
  in
  let grouped = Test.make_grouped ~name:"costar" tests in
  let instances = Instance.[ monotonic_clock ] in
  let cfg_b =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw = Benchmark.all cfg_b instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) results [] in
  List.iter
    (fun (name, ols_result) ->
      match Analyze.OLS.estimates ols_result with
      | Some [ est ] -> Printf.printf "%-34s %12.1f ns/run\n" name est
      | _ -> Printf.printf "%-34s (no estimate)\n" name)
    (List.sort compare rows);
  print_newline ()

(* ------------------------------------------------------------------ *)

let () =
  (* A larger minor heap keeps GC promotion noise out of the large-file
     data points (the parser allocates trees and persistent cache nodes). *)
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024 };
  let cfg = parse_args () in
  Bench_json.dir := cfg.json_dir;
  let corpora = corpora cfg in
  if wants cfg "fig8" then fig8 corpora;
  if wants cfg "fig9" then fig9 cfg corpora;
  if wants cfg "fig10" then fig10 cfg corpora;
  if wants cfg "fig11" then fig11 cfg corpora;
  if wants cfg "ll1" then ll1_table corpora;
  if wants cfg "ablation" then ablation cfg corpora;
  if wants cfg "earley" then earley cfg corpora;
  if wants cfg "lookahead" then lookahead cfg corpora;
  if wants cfg "gss" then gss_ablation cfg corpora;
  if wants cfg "precache" then precache cfg corpora;
  if wants cfg "intern" then intern_bench cfg corpora;
  if wants cfg "pipeline" then pipeline_bench cfg corpora;
  (* E16 forks worker processes, which OCaml 5 forbids once any domain has
     been spawned — so it must run before E15's run_batch. *)
  if wants cfg "e16" then prefork_bench cfg;
  if wants cfg "batch" then batch_bench cfg;
  if cfg.bechamel then bechamel_run corpora;
  Bench_json.flush ();
  print_endline "done."
