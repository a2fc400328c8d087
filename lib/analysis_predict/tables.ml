(* The `costar tables` compilation substrate: grammar dataflow facts
   (NULLABLE / FIRST / FOLLOW / sync bitsets from Costar_grammar.Analysis)
   and the per-decision SLL verdicts of the static analyzer (Analyze),
   exported as one fingerprinted, validated flat int-array image.

   This is the Coco/R CRT encoding taken seriously: the consumers named in
   ROADMAP items 2 (multi-error recovery: sync/anchor sets) and 4
   (turbo-gen: packed per-decision tables) load this image instead of
   re-running the analyses.  Following cache persistence v2, the format is
   a plain-text header validated *before* any payload is touched — magic,
   format version, grammar fingerprint, payload word count and checksum —
   then the payload as little-endian 32-bit words.  No [Marshal] anywhere:
   a corrupt or truncated file can only produce a typed [error], never an
   exception or a bogus table.

   Payload layout (all 32-bit words):

     META       n_terms n_nts n_prods start k_bound n_decisions
     NULLABLE   ceil(n_nts/32) words, bit x set iff NULLABLE(x)
     REACHABLE  ceil(n_nts/32) words
     PRODUCTIVE ceil(n_nts/32) words
     FIRST      n_nts rows of W = ceil((n_terms+1)/32) words (bit a: a ∈ FIRST)
     FOLLOW     n_nts rows of W; bit n_terms = end-of-input may follow
     SYNC       n_nts rows of W; bit n_terms = end-of-input anchor
     DECISIONS  n_decisions variable-length records:
       nt n_alts la_kind la_k stable states truncated
       err_kind [err_payload]      (0 none | 1 left-recursive: nt,
                                    2 invalid-state: len bytes)
       n_conflicts, then per conflict:
       alt_i alt_j at_eof wlen witness-terms amb_kind [alen amb-terms]

   The image keeps the decoded word array verbatim, so load → save is
   byte-identical, and decisions reconstructed from it are structurally
   identical to the live analyzer's (the differential gate in
   test/test_tables.ml and CI). *)

open Costar_grammar
module Types = Costar_core.Types

type error =
  | Bad_magic
  | Bad_version of string
  | Fingerprint_mismatch of { expected : string; found : string }
  | Truncated
  | Checksum_mismatch
  | Malformed of string

let error_to_string = function
  | Bad_magic -> "not a costar tables image (bad magic)"
  | Bad_version v ->
    Printf.sprintf
      "unsupported tables-image format version %s (this build reads version \
       1); regenerate it with `costar tables`"
      v
  | Fingerprint_mismatch { expected; found } ->
    Printf.sprintf
      "tables image was built for a different grammar (fingerprint %s, \
       expected %s); regenerate it with `costar tables`"
      found expected
  | Truncated -> "corrupt tables image (truncated payload)"
  | Checksum_mismatch -> "corrupt tables image (checksum mismatch)"
  | Malformed what ->
    Printf.sprintf "corrupt tables image (malformed payload: %s)" what

type t = {
  fingerprint : string;
  words : int array;  (* the full payload, exactly as on disk *)
}

let magic = "costar/tables"
let format_version = 1
let bits = Flatimg.bits
let words_for = Flatimg.words_for

(* --- Encoding ----------------------------------------------------------- *)

(* The payload is accumulated as a reversed word list; [build] is the only
   producer so quadratic appends never threaten. *)
let push = Flatimg.push

let push_bools buf flags =
  let row = Array.make (words_for (Array.length flags)) 0 in
  Array.iteri
    (fun i b ->
      if b then row.(i / bits) <- row.(i / bits) lor (1 lsl (i mod bits)))
    flags;
  Array.iter (push buf) row

(* One terminal-set row: [universe] bits from the bitset plus the
   end-of-input flag at bit [universe]. *)
let push_terminal_row buf set ~eof =
  let n = Bitset.universe set in
  let row = Array.make (words_for (n + 1)) 0 in
  Bitset.iter
    (fun i -> row.(i / bits) <- row.(i / bits) lor (1 lsl (i mod bits)))
    set;
  if eof then row.(n / bits) <- row.(n / bits) lor (1 lsl (n mod bits));
  Array.iter (push buf) row

let push_word buf w =
  push buf (List.length w);
  List.iter (push buf) w

let push_decision buf (d : Analyze.decision) =
  push buf d.Analyze.nt;
  push buf d.Analyze.n_alts;
  (match d.Analyze.lookahead with
  | Analyze.Sll_k k -> push buf 0; push buf k
  | Analyze.Beyond k -> push buf 1; push buf k
  | Analyze.Cyclic -> push buf 2; push buf 0
  | Analyze.Ambiguous -> push buf 3; push buf 0);
  push buf (if d.Analyze.uses_stable_return then 1 else 0);
  push buf d.Analyze.states;
  push buf (if d.Analyze.truncated then 1 else 0);
  (match d.Analyze.error with
  | None -> push buf 0
  | Some (Types.Left_recursive x) -> push buf 1; push buf x
  | Some (Types.Invalid_state s) ->
    push buf 2;
    push buf (String.length s);
    String.iter (fun c -> push buf (Char.code c)) s);
  push buf (List.length d.Analyze.conflicts);
  List.iter
    (fun (c : Analyze.conflict) ->
      push buf (fst c.Analyze.alts);
      push buf (snd c.Analyze.alts);
      push buf (if c.Analyze.at_eof then 1 else 0);
      push_word buf c.Analyze.witness;
      match c.Analyze.ambiguous_word with
      | None -> push buf 0
      | Some w -> push buf 1; push_word buf w)
    d.Analyze.conflicts

let build anl (r : Analyze.t) =
  let g = Analysis.grammar anl in
  let n_nts = Grammar.num_nonterminals g in
  let buf = ref [] in
  push buf (Grammar.num_terminals g);
  push buf n_nts;
  push buf (Grammar.num_productions g);
  push buf (Grammar.start g);
  push buf r.Analyze.k_bound;
  push buf (List.length r.Analyze.decisions);
  push_bools buf (Array.init n_nts (Analysis.nullable anl));
  push_bools buf (Array.init n_nts (Analysis.reachable anl));
  push_bools buf (Array.init n_nts (Analysis.productive anl));
  for x = 0 to n_nts - 1 do
    push_terminal_row buf (Analysis.first anl x) ~eof:false
  done;
  for x = 0 to n_nts - 1 do
    push_terminal_row buf (Analysis.follow anl x) ~eof:(Analysis.follow_end anl x)
  done;
  for x = 0 to n_nts - 1 do
    push_terminal_row buf (Analysis.sync anl x) ~eof:(Analysis.follow_end anl x)
  done;
  List.iter (push_decision buf) r.Analyze.decisions;
  { fingerprint = Grammar.fingerprint g;
    words = Array.of_list (List.rev !buf) }

(* FNV-1a over the payload bytes, rendered as one hex word in the header
   (the byte discipline lives in {!Costar_grammar.Flatimg}, shared with
   the v3 prediction-cache image). *)
let checksum = Flatimg.checksum

let encode t =
  let buf = Buffer.create ((Array.length t.words * 4) + 128) in
  Buffer.add_string buf
    (Printf.sprintf "%s\n%d\n%s\n%d %08x\n" magic format_version t.fingerprint
       (Array.length t.words) (checksum t.words));
  Flatimg.add_le_words buf t.words;
  Buffer.contents buf

(* --- Checked reads ------------------------------------------------------- *)

(* Every payload read is bounds-checked: overruns and nonsense values turn
   into [Bad], never an exception escaping to a consumer.  [decode] runs the
   full structural walk once, so the public accessors below only operate on
   images where it already succeeded. *)
exception Bad of error

let word t i =
  if i < 0 || i >= Array.length t.words then raise (Bad Truncated)
  else t.words.(i)

let read t pos =
  let w = word t !pos in
  incr pos;
  w

let meta t =
  let n_terms = word t 0 in
  let n_nts = word t 1 in
  let n_prods = word t 2 in
  let start = word t 3 in
  let k_bound = word t 4 in
  let n_decisions = word t 5 in
  if n_terms < 0 || n_nts <= 0 || n_prods < 0 || n_decisions < 0 then
    raise (Bad (Malformed "negative sizes in META"));
  if start < 0 || start >= n_nts then
    raise (Bad (Malformed "start symbol out of range"));
  (n_terms, n_nts, n_prods, start, k_bound, n_decisions)

(* Word offsets of the fixed-size sections. *)
type sections = {
  n_terms : int;
  n_nts : int;
  n_prods : int;
  n_decisions : int;
  k : int;
  row_w : int;  (* words per FIRST/FOLLOW/SYNC row *)
  nullable_at : int;
  reachable_at : int;
  productive_at : int;
  first_at : int;
  follow_at : int;
  sync_at : int;
  decisions_at : int;
}

let layout t =
  let n_terms, n_nts, n_prods, _, k, n_decisions = meta t in
  let wn = words_for n_nts in
  let row_w = words_for (n_terms + 1) in
  let nullable_at = 6 in
  let reachable_at = nullable_at + wn in
  let productive_at = reachable_at + wn in
  let first_at = productive_at + wn in
  let follow_at = first_at + (n_nts * row_w) in
  let sync_at = follow_at + (n_nts * row_w) in
  let decisions_at = sync_at + (n_nts * row_w) in
  { n_terms; n_nts; n_prods; n_decisions; k; row_w; nullable_at;
    reachable_at; productive_at; first_at; follow_at; sync_at; decisions_at }

let bit_at t ~at i = word t (at + (i / bits)) land (1 lsl (i mod bits)) <> 0

let read_list t pos len ~what ~check =
  if len < 0 then raise (Bad (Malformed ("negative " ^ what ^ " length")));
  if len > 1 lsl 20 then raise (Bad (Malformed ("oversized " ^ what)));
  let rec go n acc =
    if n = 0 then List.rev acc
    else begin
      let v = read t pos in
      if not (check v) then
        raise (Bad (Malformed (what ^ " element out of range")));
      go (n - 1) (v :: acc)
    end
  in
  go len []

let read_decision t pos sec =
  let nt = read t pos in
  if nt < 0 || nt >= sec.n_nts then
    raise (Bad (Malformed "decision nonterminal out of range"));
  let n_alts = read t pos in
  let la_kind = read t pos in
  let la_k = read t pos in
  let lookahead =
    match la_kind with
    | 0 -> Analyze.Sll_k la_k
    | 1 -> Analyze.Beyond la_k
    | 2 -> Analyze.Cyclic
    | 3 -> Analyze.Ambiguous
    | k -> raise (Bad (Malformed (Printf.sprintf "lookahead kind %d" k)))
  in
  let uses_stable_return = read t pos <> 0 in
  let states = read t pos in
  let truncated = read t pos <> 0 in
  let error =
    match read t pos with
    | 0 -> None
    | 1 ->
      let x = read t pos in
      if x < 0 || x >= sec.n_nts then
        raise (Bad (Malformed "error nonterminal out of range"));
      Some (Types.Left_recursive x)
    | 2 ->
      let cs =
        read_list t pos (read t pos) ~what:"error string"
          ~check:(fun b -> b >= 0 && b < 256)
      in
      let b = Bytes.create (List.length cs) in
      List.iteri (fun i c -> Bytes.set b i (Char.chr c)) cs;
      Some (Types.Invalid_state (Bytes.to_string b))
    | k -> raise (Bad (Malformed (Printf.sprintf "error kind %d" k)))
  in
  let term a = a >= 0 && a < sec.n_terms in
  let n_conflicts = read t pos in
  if n_conflicts < 0 || n_conflicts > 1 lsl 20 then
    raise (Bad (Malformed "bad conflict count"));
  let conflicts = ref [] in
  for _ = 1 to n_conflicts do
    let alt_i = read t pos in
    let alt_j = read t pos in
    if alt_i < 0 || alt_i >= sec.n_prods || alt_j < 0 || alt_j >= sec.n_prods
    then raise (Bad (Malformed "conflict production out of range"));
    let at_eof = read t pos <> 0 in
    let witness = read_list t pos (read t pos) ~what:"witness" ~check:term in
    let ambiguous_word =
      match read t pos with
      | 0 -> None
      | 1 ->
        Some (read_list t pos (read t pos) ~what:"ambiguous word" ~check:term)
      | k -> raise (Bad (Malformed (Printf.sprintf "ambiguity flag %d" k)))
    in
    conflicts :=
      { Analyze.alts = (alt_i, alt_j); witness; at_eof; ambiguous_word }
      :: !conflicts
  done;
  {
    Analyze.nt;
    n_alts;
    lookahead;
    conflicts = List.rev !conflicts;
    uses_stable_return;
    states;
    truncated;
    error;
  }

let decisions t =
  let sec = layout t in
  let pos = ref sec.decisions_at in
  let rec go n acc =
    if n = 0 then List.rev acc
    else go (n - 1) (read_decision t pos sec :: acc)
  in
  go sec.n_decisions []

let validate t =
  match
    let sec = layout t in
    if sec.decisions_at > Array.length t.words then raise (Bad Truncated);
    let pos = ref sec.decisions_at in
    for _ = 1 to sec.n_decisions do
      ignore (read_decision t pos sec)
    done;
    if !pos <> Array.length t.words then
      raise (Bad (Malformed "trailing words after decisions"))
  with
  | () -> Ok ()
  | exception Bad e -> Error e

(* --- Decoding ------------------------------------------------------------ *)

let decode ?expect_fingerprint s =
  let next_line pos =
    match String.index_from_opt s pos '\n' with
    | None -> None
    | Some i -> Some (String.sub s pos (i - pos), i + 1)
  in
  let ( let* ) r f = match r with Error _ as e -> e | Ok v -> f v in
  let line pos =
    match next_line pos with None -> Error Truncated | Some lp -> Ok lp
  in
  match next_line 0 with
  | None -> Error Bad_magic
  | Some (m, _) when m <> magic -> Error Bad_magic
  | Some (_, p1) ->
    let* v, p2 = line p1 in
    if v <> string_of_int format_version then Error (Bad_version v)
    else
      let* fp, p3 = line p2 in
      let* () =
        match expect_fingerprint with
        | Some expected when expected <> fp ->
          Error (Fingerprint_mismatch { expected; found = fp })
        | _ -> Ok ()
      in
      let* counts, p4 = line p3 in
      let* n_words, sum =
        match Scanf.sscanf_opt counts "%d %x%!" (fun n c -> (n, c)) with
        | None -> Error (Malformed "bad count/checksum line")
        | Some nc -> Ok nc
      in
      if n_words < 0 || String.length s - p4 < n_words * 4 then Error Truncated
      else if String.length s - p4 > n_words * 4 then
        Error (Malformed "trailing bytes after payload")
      else begin
        let words = Flatimg.words_of_le_string s ~pos:p4 ~count:n_words in
        if checksum words <> sum then Error Checksum_mismatch
        else
          let t = { fingerprint = fp; words } in
          let* () = validate t in
          Ok t
      end

(* --- Public accessors ---------------------------------------------------- *)

let fingerprint t = t.fingerprint
let k_bound t = (layout t).k

let sizes t =
  let sec = layout t in
  (sec.n_terms, sec.n_nts, sec.n_prods, sec.n_decisions)

let nt_flag t x ~at name =
  let sec = layout t in
  if x < 0 || x >= sec.n_nts then invalid_arg ("Tables." ^ name);
  bit_at t ~at:(at sec) x

let nullable t x = nt_flag t x ~at:(fun s -> s.nullable_at) "nullable"
let reachable t x = nt_flag t x ~at:(fun s -> s.reachable_at) "reachable"
let productive t x = nt_flag t x ~at:(fun s -> s.productive_at) "productive"

let terminal_row t x ~at =
  let sec = layout t in
  if x < 0 || x >= sec.n_nts then
    invalid_arg "Tables: nonterminal out of range";
  let row = at sec + (x * sec.row_w) in
  let acc = ref [] in
  for a = sec.n_terms - 1 downto 0 do
    if bit_at t ~at:row a then acc := a :: !acc
  done;
  !acc

let first t x = terminal_row t x ~at:(fun s -> s.first_at)
let follow t x = terminal_row t x ~at:(fun s -> s.follow_at)
let sync t x = terminal_row t x ~at:(fun s -> s.sync_at)

let follow_end t x =
  let sec = layout t in
  if x < 0 || x >= sec.n_nts then invalid_arg "Tables.follow_end";
  bit_at t ~at:(sec.follow_at + (x * sec.row_w)) sec.n_terms

(* Field-by-field equality of decision lists: the differential gate's
   definition of "identical". *)
let same_decisions (a : Analyze.decision list) (b : Analyze.decision list) =
  a = b

(* --- Dump ---------------------------------------------------------------- *)

let dump g t =
  let buf = Buffer.create 1024 in
  let n_terms, n_nts, n_prods, n_decisions = sizes t in
  Buffer.add_string buf
    (Printf.sprintf
       "tables image: %d terminals, %d nonterminals, %d productions, %d \
        decisions (k <= %d)\nfingerprint: %s\n"
       n_terms n_nts n_prods n_decisions (k_bound t) (fingerprint t));
  for x = 0 to n_nts - 1 do
    let set label eof = function
      | [] when not eof -> Printf.sprintf "  %s: {}" label
      | l ->
        Printf.sprintf "  %s: { %s%s }" label
          (String.concat " " (List.map (Names.terminal g) l))
          (if eof then (if l = [] then "<eof>" else " <eof>") else "")
    in
    Buffer.add_string buf
      (Printf.sprintf "%s%s%s%s\n"
         (Names.nonterminal g x)
         (if nullable t x then " [nullable]" else "")
         (if not (reachable t x) then " [unreachable]" else "")
         (if not (productive t x) then " [unproductive]" else ""));
    Buffer.add_string buf (set "first" false (first t x) ^ "\n");
    Buffer.add_string buf (set "follow" (follow_end t x) (follow t x) ^ "\n");
    Buffer.add_string buf (set "sync" (follow_end t x) (sync t x) ^ "\n")
  done;
  List.iter
    (fun (d : Analyze.decision) ->
      Buffer.add_string buf
        (Printf.sprintf "decision %s: %s, %d alternatives, %d states%s\n"
           (Names.nonterminal g d.Analyze.nt)
           (Analyze.lookahead_to_string d.Analyze.lookahead)
           d.Analyze.n_alts d.Analyze.states
           (match List.length d.Analyze.conflicts with
           | 0 -> ""
           | n ->
             Printf.sprintf ", %d conflict%s" n (if n = 1 then "" else "s"))))
    (decisions t);
  Buffer.contents buf

(* --- Files --------------------------------------------------------------- *)

let save t file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (encode t))

let load ?expect_fingerprint file =
  match open_in_bin file with
  | exception Sys_error msg -> Error (Malformed msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception _ -> Error Truncated
        | s -> decode ?expect_fingerprint s)
