(* Seeded workload inputs.  Everything here is a pure function of the
   workload, the seed and the scale; the library only ever receives the
   text (or, for token-level mutants, the token list) built here. *)

open Costar_grammar
module Lang = Costar_langs.Lang
module Mutate = Costar_cover.Mutate

let langs = Array.of_list Costar_langs.Registry.all
let lang_name i = langs.(i).Lang.name
let json = 0
let xml = 1

type input = {
  lang : int;  (** index into [langs] *)
  text : string;  (** source text; [""] for a token-level mutant *)
  toks : Token.t list option;
      (** a token-level mutant: fed to the parser without the scanner *)
  bytes : int;  (** source bytes (a token mutant counts its lexemes) *)
  deep : bool;  (** synthesized deep nesting (oneshot-cli) *)
}

let of_text lang text =
  { lang; text; toks = None; bytes = String.length text; deep = false }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* The [k]-th of [n] points on a ladder over [lo, hi]: the middle of the
   [k]-th of [n] equal strata, moved by the seed within a fifth of a
   stratum.  Sizes and depths thus keep the same spread for every seed,
   and the seed chooses the content, so runs on different seeds measure
   comparable corpora. *)
let stratum rng ~n ~lo ~hi k =
  let u = 0.5 +. (0.2 *. (Random.State.float rng 1.0 -. 0.5)) in
  lo + int_of_float (float_of_int (hi - lo) *. (float_of_int k +. u) /. float_of_int n)

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* [files seed ~tag ~n ~lo ~hi] draws [n] files per language with
   [Lang.generate] sizes stratified over [lo.(l), hi.(l)], in a seeded
   order that mixes the languages. *)
let files ~scale seed ~tag ~n ~lo ~hi =
  List.init n (fun k ->
      List.init (Array.length langs) (fun l ->
          let rng = Rng.split seed ((tag * 1_000_003) + (k * 16) + l) in
          let size = stratum rng ~n ~lo:(scaled scale lo.(l)) ~hi:(scaled scale hi.(l)) k in
          let gseed = Random.State.bits rng in
          of_text l (langs.(l).Lang.generate ~seed:gseed ~size)))
  |> List.concat
  |> shuffle (Rng.split seed tag)

(* Medium and large files, about 10-120 KB each (the languages differ in
   bytes per size unit: json ~3.2, xml ~8.8, dot ~4.6, minipy ~4.9).
   These sizes, like every count, share and range in this file, are a
   chosen mix, not measured traffic; README.md ties each to its basis. *)
let warm_corpus ~scale seed =
  files ~scale seed ~tag:1 ~n:8 ~lo:[| 3000; 1100; 2200; 2000 |]
    ~hi:[| 37000; 13600; 26000; 24000 |]

(* Deep nesting the generators never reach (they cap depth at ~8):
   [depth] levels of json arrays/objects around a generated value, or
   [depth] nested xml elements with an attribute each. *)
let deep_json rng depth =
  let b = Buffer.create (depth * 12) in
  let closers = Stack.create () in
  for _ = 1 to depth do
    if Random.State.bool rng then (
      Buffer.add_string b "{\"k\": ";
      Stack.push '}' closers)
    else (
      Buffer.add_string b "[1, ";
      Stack.push ']' closers)
  done;
  Buffer.add_string b (langs.(json).Lang.generate ~seed:(Random.State.bits rng) ~size:20);
  Stack.iter (Buffer.add_char b) closers;
  Buffer.add_char b '\n';
  Buffer.contents b

let deep_xml rng depth =
  let b = Buffer.create (depth * 24) in
  for i = 1 to depth do
    Printf.bprintf b "<e%d a=\"%d\">" (i mod 7) (Random.State.int rng 100)
  done;
  Buffer.add_string b "leaf";
  for i = depth downto 1 do
    Printf.bprintf b "</e%d>" (i mod 7)
  done;
  Buffer.add_char b '\n';
  Buffer.contents b

(* Small-to-medium files (about 0.3-12 KB), 16 per language, plus eight
   deep inputs, json and xml alternately, 1000-4000 levels deep: far
   short of the 50k-200k levels at which rendering turns superlinear. *)
let oneshot_inputs ~scale seed =
  let base =
    files ~scale seed ~tag:2 ~n:16 ~lo:[| 100; 40; 60; 60 |]
      ~hi:[| 3000; 1200; 2000; 2000 |]
  in
  let n_deep = 8 in
  let deep =
    List.init n_deep (fun j ->
        let rng = Rng.split seed (2_000_000 + j) in
        let depth = scaled scale (stratum rng ~n:n_deep ~lo:1000 ~hi:4000 j) in
        let l = if j mod 2 = 0 then json else xml in
        let text = if l = json then deep_json rng depth else deep_xml rng depth in
        { (of_text l text) with deep = true })
  in
  shuffle (Rng.split seed 2) (base @ deep)

(* [mutant seed k ~source ~tokens ~byte_level] draws the first mutant of
   the wanted kind from the stream of mutant [k], so every corpus holds
   exactly as many byte-level as token-level mutants. *)
let rec mutant seed k ~attempt ~source ~tokens ~byte_level =
  let rng = Rng.split seed ((k * 64) + attempt) in
  match Mutate.derive rng ~source ~tokens with
  | Mutate.Source (s, _) when byte_level -> `Source s
  | Mutate.Tokens (toks, _) when not byte_level -> `Tokens toks
  | _ -> mutant seed k ~attempt:(attempt + 1) ~source ~tokens ~byte_level

(* Byte- and token-level mutants, 12 of each of 64 seed files; the seed
   files are small to medium.  Half are byte-level, the mean of the fair coin
   [Mutate.derive] tosses between the two.  Byte mutants may be rejected
   by the lexer. *)
let mutant_inputs ~scale seed =
  let seeds =
    files ~scale seed ~tag:3 ~n:16 ~lo:[| 100; 40; 60; 60 |]
      ~hi:[| 1500; 600; 1000; 1000 |]
    |> Array.of_list
  in
  let seed_toks =
    Array.map
      (fun inp ->
        match langs.(inp.lang).Lang.tokenize inp.text with
        | Ok toks -> toks
        | Error msg -> failwith ("perfbench: seed file does not lex: " ^ msg))
      seeds
  in
  List.init (12 * Array.length seeds) (fun k ->
      let i = k mod Array.length seeds in
      let inp = seeds.(i) in
      match
        mutant (3_000_000 + seed) k ~attempt:0 ~source:inp.text ~tokens:seed_toks.(i)
          ~byte_level:(k / Array.length seeds mod 2 = 0)
      with
      | `Source s -> of_text inp.lang s
      | `Tokens toks ->
        let bytes =
          List.fold_left (fun a t -> a + String.length (Token.lexeme t)) 0 toks
        in
        { lang = inp.lang; text = ""; toks = Some toks; bytes; deep = false })

let workloads = [ "batch-warm"; "oneshot-cli"; "recover-mutants"; "batch-prefork" ]

(** The inputs of a workload.  [batch-prefork] serves the [batch-warm]
    corpus. *)
let inputs ?(scale = 1.0) workload seed =
  Array.of_list
    (match workload with
    | "batch-warm" | "batch-prefork" -> warm_corpus ~scale seed
    | "oneshot-cli" -> oneshot_inputs ~scale seed
    | "recover-mutants" -> mutant_inputs ~scale seed
    | w -> invalid_arg ("unknown workload " ^ w))
