open Costar_grammar
open Costar_grammar.Symbols

type state_id = int

type verdict =
  | V_empty
  | V_all_pred of int
  | V_pending

type info = {
  configs : Config.sll list;
  verdict : verdict;
  accepting : int list;
  (* Preboxed verdicts for the warm prediction fast path, so deciding a
     state allocates nothing: [decided_pred] is the prediction when
     [verdict] is [V_all_pred] (a shared [Unique_pred] box), [eof_pred] the
     prediction when input ends in this state. *)
  decided_pred : Types.prediction;
  eof_pred : Types.prediction;
}

(* State keys: the sorted array of the member configurations' dense ids,
   hashed over its full length (the generic hash would inspect only a
   prefix). *)
module Key_tbl = Hashtbl.Make (struct
  type t = int array

  let equal a b =
    let n = Array.length a in
    n = Array.length b
    &&
    let rec eq i = i >= n || (a.(i) = b.(i) && eq (i + 1)) in
    eq 0

  let hash a =
    let h = ref (Array.length a) in
    Array.iter (fun x -> h := (!h * 31) + x + 1) a;
    !h land max_int
end)

let no_row : int array = [||]
let dummy_info =
  {
    configs = [];
    verdict = V_empty;
    accepting = [];
    decided_pred = Types.Reject_pred;
    eof_pred = Types.Reject_pred;
  }
let dummy_cfg = { Config.s_pred = -1; s_frames = Frames.nil; s_ctx = Ctx_accept }

type closure_result = (Config.sll list * bool, Types.error) result

type learned =
  | Learned_cell of nonterminal * int
  | Decoded_state of state_id

(* A validated v3 flat cache image (DESIGN.md §13): one contiguous int32
   bigarray, typically an [Unix.map_file] view of an image file, so N
   processes share a single page-cache copy with zero deserialization.
   Offsets are absolute word indices into [i_words], admitted once by the
   structural validation walk in [validate_image]; hot reads afterwards use
   the unchecked [Flatimg.get_u].  The bigarray is never written. *)
type image = {
  i_words : Flatimg.i32;
  i_terms : int;  (** terminals per transition row *)
  i_states : int;  (** states stored in the image *)
  i_inits_at : int;  (** nonterminal -> initial state id, or -1 *)
  i_trans_at : int;  (** dense [i_states * i_terms] successor matrix *)
  i_index_at : int;  (** state -> config-block offset (relative to data) *)
  i_data_at : int;  (** per-state configuration blocks *)
}

type t = {
  (* The analysis this cache was created against.  Configurations are
     expressed in its [Frames] interner, whose spine ids depend on runtime
     interning order — so a cache must only ever be consulted through this
     exact analysis, never through another [Analysis.make] of the same
     grammar.  Consumers holding a foreign cache (the machine, the static
     analyzer) read the analysis back from here. *)
  anl : Analysis.t;
  frames : Frames.t;
  n_terms : int;
  (* One shared [(Unique_pred ix, 0)] pair per production, so the warm path
     and single-alternative decisions never re-allocate their verdict or
     its depth pair. *)
  uniq : (Types.prediction * int) array;
  (* Two-level layering for parallel batch parsing: an overlay cache holds a
     [base] — a frozen snapshot that is never mutated again and is therefore
     safe to consult from many domains without locks — and records only the
     entries discovered past it.  Id spaces are global: config ids below
     [base_cfgs] and state ids below [base_states] belong to the base;
     [cfgs]/[keys]/[infos] are indexed by [id - base_*], while [closures]
     and [trans] are global-indexed so an overlay can attach a closure memo
     or transition row to a base-range id it does not own.  A plain cache is
     the degenerate overlay: [base = None], both offsets 0. *)
  base : t option;
  base_cfgs : int;
  base_states : int;
  (* dense ids for configurations; [closures] is the per-configuration
     closure memo, indexed by (global) config id *)
  cfg_ids : int Config.Sll_tbl.t;
  mutable cfgs : Config.sll array;
  mutable closures : closure_result option array;
  mutable n_cfgs : int;
  (* DFA states: interned sorted-config-id keys, info per state, and a
     lazily allocated terminal-indexed transition row per state *)
  state_ids : state_id Key_tbl.t;
  mutable keys : int array array;
  mutable infos : info array;
  mutable trans : int array array;
  mutable n_states : int;
  mutable n_trans : int; (* transitions added at THIS layer *)
  inits : int array; (* nonterminal -> initial state id, or -1 *)
  (* The first-token decision table: row [x], column [a] (a terminal, or
     [n_terms] for end of input) memoizes what this cache's DFA for [x]
     decides after reading at most that one token: [(p lsl 2) lor tag]
     where [tag] is the depth the DFA walk decided at (0 or 1), or
     [single_tag] for a single-alternative decision (no walk at all);
     [no_entry] while unknown, [no_decision] once the DFA is known to need
     more (or to reject, or to fail over to LL).  Entries are facts about
     DFA states that never change, so copies, snapshots and overlays carry
     them verbatim.  A table hit is the whole warm prediction. *)
  decisions : int array;
  (* A third read layer below [base]: an mmapped v3 image.  Reads that miss
     both the own layer and the base fall through to the image's dense
     rows; state infos are decoded from the image lazily, per state, on
     first touch.  [None] for ordinary caches. *)
  img : image option;
  (* What this cache learned by itself, newest first: every table cell
     [learn] filled and every image state [info] decoded.  Prediction and
     [replay] learn a cell only while it is unknown, and a state is
     decoded once, so the log is bounded by the table and the image. *)
  mutable learned : learned list;
  mutable n_learned : int;
}

let unique_pairs g =
  Array.init (Array.length (Grammar.prods g)) (fun ix -> (Types.Unique_pred ix, 0))

let no_entry = -1
let no_decision = -2
let single_tag = 2
let static_tag = 3

(* The gate under which the LL(1) cells are exactly what the DFA decides
   after one token (DESIGN.md §7): every nonterminal reachable and
   productive, none left-recursive.  Then every configuration's closure is
   non-empty and never meets left recursion, so a move of [x]'s initial
   state on [a] keeps exactly the alternatives whose PREDICT set holds [a],
   and the initial state accepts exactly the nullable alternatives when
   [follow_end x]. *)
let ll1_exact anl =
  let g = Analysis.grammar anl in
  let rec all x =
    x < 0
    || (Analysis.reachable anl x && Analysis.productive anl x && all (x - 1))
  in
  all (Grammar.num_nonterminals g - 1)
  && Int_set.is_empty (Left_recursion.left_recursive_nts g anl)

(* A fresh table knows the single-alternative decisions, which need no
   lookahead and no DFA, and, under the gate, the one-candidate LL(1)
   cells of every other decision, tagged [static_tag]. *)
let fresh_decisions anl =
  let g = Analysis.grammar anl in
  let n_terms = Grammar.num_terminals g in
  let stride = n_terms + 1 in
  let t = Array.make (max 1 (Grammar.num_nonterminals g * stride)) no_entry in
  let static = ll1_exact anl in
  let cells, eof = Analysis.ll1_cells anl in
  for x = 0 to Grammar.num_nonterminals g - 1 do
    match Grammar.prods_of g x with
    | [ ix ] -> Array.fill t (x * stride) stride ((ix lsl 2) lor single_tag)
    | _ :: _ :: _ when static ->
      let set col = function
        | [ ix ] -> t.((x * stride) + col) <- (ix lsl 2) lor static_tag
        | _ -> ()
      in
      for a = 0 to n_terms - 1 do
        set a cells.((x * n_terms) + a)
      done;
      set n_terms eof.(x)
    | _ -> ()
  done;
  t

let create anl =
  let g = Analysis.grammar anl in
  {
    anl;
    frames = Analysis.frames anl;
    n_terms = Grammar.num_terminals g;
    uniq = unique_pairs g;
    base = None;
    base_cfgs = 0;
    base_states = 0;
    cfg_ids = Config.Sll_tbl.create 256;
    cfgs = Array.make 256 dummy_cfg;
    closures = Array.make 256 None;
    n_cfgs = 0;
    state_ids = Key_tbl.create 64;
    keys = Array.make 64 no_row;
    infos = Array.make 64 dummy_info;
    trans = Array.make 64 no_row;
    n_states = 0;
    n_trans = 0;
    inits = Array.make (max 1 (Grammar.num_nonterminals g)) (-1);
    decisions = fresh_decisions anl;
    img = None;
    learned = [];
    n_learned = 0;
  }

let frames c = c.frames
let analysis c = c.anl
let num_states c = c.n_states

let rec num_transitions c =
  c.n_trans + match c.base with None -> 0 | Some b -> num_transitions b

let num_configs c = c.n_cfgs

let grow arr count fill =
  if count < Array.length arr then arr
  else begin
    let bigger = Array.make (2 * max 1 (Array.length arr)) fill in
    Array.blit arr 0 bigger 0 (Array.length arr);
    bigger
  end

let config_id c cfg =
  match Config.Sll_tbl.find_opt c.cfg_ids cfg with
  | Some id -> id
  | None -> (
    let in_base =
      match c.base with
      | None -> None
      | Some b -> Config.Sll_tbl.find_opt b.cfg_ids cfg
    in
    match in_base with
    | Some id -> id
    | None ->
      let id = c.n_cfgs in
      let off = id - c.base_cfgs in
      c.cfgs <- grow c.cfgs off dummy_cfg;
      c.closures <- grow c.closures id None;
      c.cfgs.(off) <- cfg;
      Config.Sll_tbl.add c.cfg_ids cfg id;
      c.n_cfgs <- id + 1;
      id)

let cfg_of_id c id =
  if id < c.base_cfgs then
    match c.base with
    | Some b -> b.cfgs.(id)
    | None -> assert false
  else c.cfgs.(id - c.base_cfgs)

(* The closure memo for a global config id, consulting the overlay layer
   first (it may shadow a base-range id the base never computed). *)
let closure_of_id c id =
  match if id < Array.length c.closures then c.closures.(id) else None with
  | Some _ as r -> r
  | None -> (
    match c.base with
    | Some b when id < c.base_cfgs -> b.closures.(id)
    | _ -> None)

(* Decode one state's configuration block out of an image.  A frame is
   interned from its last symbol up ({!Frames.frame_cons}) and a spine
   from its last frame up, so a decode allocates little beyond the
   configurations it returns: the parent of forked workers replays every
   decode they report.  The frames interner serializes internally, so
   concurrent lazy decodes from several domains are safe. *)
let image_state_configs frames (im : image) sid =
  let words = im.i_words in
  let cur = ref (im.i_data_at + Flatimg.get_u words (im.i_index_at + sid)) in
  let next () =
    let v = Flatimg.get_u words !cur in
    incr cur;
    v
  in
  (* The frame of the [k] (kind, id) symbol pairs at word [at], on [tail]. *)
  let rec frame at k tail =
    if k = 0 then tail
    else
      let s = at + (2 * (k - 1)) in
      frame at (k - 1)
        (Frames.frame_cons frames
           ~terminal:(Flatimg.get_u words s = 0)
           (Flatimg.get_u words (s + 1))
           tail)
  in
  let rec spine k =
    if k = 0 then Frames.nil
    else begin
      let n_syms = next () in
      let at = !cur in
      cur := at + (2 * n_syms);
      let tail = spine (k - 1) in
      Frames.cons frames (frame at n_syms Frames.empty_frame) tail
    end
  in
  let rec configs k =
    if k = 0 then []
    else begin
      let pred = next () in
      let ctx = next () in
      let s_frames = spine (next ()) in
      let cfg =
        {
          Config.s_pred = pred;
          s_frames;
          s_ctx = (if ctx < 0 then Config.Ctx_accept else Config.Ctx_nt ctx);
        }
      in
      cfg :: configs (k - 1)
    end
  in
  configs (next ())

(* Raw variants for the warm prediction fast path: no option/box per call. *)
let rec init_get c x =
  let s = c.inits.(x) in
  if s >= 0 then s
  else
    match c.base with
    | Some b -> init_get b x
    | None -> (
      match c.img with
      | Some im -> Flatimg.get_u im.i_words (im.i_inits_at + x)
      | None -> -1)

let find_init c x =
  let s = init_get c x in
  if s < 0 then None else Some s

let unique_at c ix = c.uniq.(ix)

let add_init c x sid = c.inits.(x) <- sid

let is_accepting (cfg : Config.sll) =
  match cfg.s_ctx with
  | Config.Ctx_accept -> Frames.spine_is_nil cfg.s_frames
  | Config.Ctx_nt _ -> false

let compute_info uniq configs =
  let verdict =
    match Config.preds_of_sll configs with
    | [] -> V_empty
    | [ p ] -> V_all_pred p
    | _ -> V_pending
  in
  let accepting = Config.preds_of_sll (List.filter is_accepting configs) in
  let decided_pred =
    match verdict with
    | V_all_pred p -> fst uniq.(p)
    | V_empty | V_pending -> Types.Reject_pred
  in
  let eof_pred =
    match accepting with
    | [] -> Types.Reject_pred
    | [ p ] -> fst uniq.(p)
    | p :: _ -> Types.Ambig_pred p
  in
  { configs; verdict; accepting; decided_pred; eof_pred }

let intern c configs =
  let key = Array.of_list (List.map (config_id c) configs) in
  Array.sort (fun (a : int) b -> compare a b) key;
  let known =
    match Key_tbl.find_opt c.state_ids key with
    | Some _ as sid -> sid
    | None -> (
      match c.base with
      | None -> None
      | Some b -> Key_tbl.find_opt b.state_ids key)
  in
  match known with
  | Some sid -> sid
  | None ->
    let sid = c.n_states in
    let off = sid - c.base_states in
    c.keys <- grow c.keys off no_row;
    c.infos <- grow c.infos off dummy_info;
    c.trans <- grow c.trans sid no_row;
    c.keys.(off) <- key;
    c.infos.(off) <- compute_info c.uniq configs;
    Key_tbl.add c.state_ids key sid;
    c.n_states <- sid + 1;
    Instr.record_state_intern ();
    sid

let log c e =
  c.learned <- e :: c.learned;
  c.n_learned <- c.n_learned + 1

let rec info c sid =
  if sid < 0 || sid >= c.n_states then
    invalid_arg "Cache.info: unknown state id"
  else if sid < c.base_states then
    match c.base with
    | Some b -> info b sid
    | None -> assert false
  else begin
    let off = sid - c.base_states in
    let inf = c.infos.(off) in
    if inf != dummy_info then inf
    else
      match c.img with
      | Some im when sid < im.i_states ->
        (* Lazy per-state decode from the image, memoized in [infos].  Two
           domains may race here and decode the same state twice; both
           results are equal immutable records (and OCaml publishes
           initializing writes safely), so whichever pointer a reader
           observes is correct — the race costs a duplicate decode, not
           correctness.  It may also drop an entry of the learn-back log,
           which costs a later process that decode. *)
        let inf = compute_info c.uniq (image_state_configs c.frames im sid) in
        c.infos.(off) <- inf;
        log c (Decoded_state sid);
        inf
      | _ -> inf
  end

(* The warm-path transition read: -1 when absent.  [find_trans] wraps it in
   an option for ordinary callers.  An overlay row, once created, shadows
   the whole base row for its state (copy-on-write in [add_trans]), so the
   fallthrough fires only while a state has no overlay row at all.  Input
   tokens may carry terminal ids the grammar never interned: they have no
   column, so no transition is ever recorded for them (no configuration
   moves on them, and the walk goes on to the empty state). *)
let rec trans_get c sid a =
  if a < 0 || a >= c.n_terms then -1
  else
    let row = Array.unsafe_get c.trans sid in
    if row != no_row then Array.unsafe_get row a
    else
      match c.base with
      | Some b when sid < c.base_states -> trans_get b sid a
      | _ -> (
        (* Third layer: the mmapped image's dense row — one unboxed word
           read, straight off the page cache. *)
        match c.img with
        | Some im when sid < im.i_states ->
          Flatimg.get_u im.i_words (im.i_trans_at + (sid * im.i_terms) + a)
        | _ -> -1)

(* {2 The first-token decision table} *)

let decisions c = c.decisions

let column c (w : Word.t) i =
  if i >= w.Word.len then c.n_terms
  else
    let a = Int32.to_int (Bigarray.Array1.unsafe_get w.Word.kinds i) in
    if a >= 0 && a < c.n_terms then a else -1

let decision c x w i =
  let col = column c w i in
  if col < 0 then no_decision
  else Array.unsafe_get c.decisions ((x * (c.n_terms + 1)) + col)

(* What the DFA decides after at most one token, read off the states it
   already has: the initial state's own verdict, its end-of-input verdict,
   or the verdict of its successor on the column's terminal. *)
let learn_column c x col =
  let s0 = init_get c x in
  if s0 >= 0 then begin
    let k = (x * (c.n_terms + 1)) + col in
    let fill e =
      c.decisions.(k) <- e;
      log c (Learned_cell (x, col))
    in
    let decided p depth = fill ((p lsl 2) lor depth) in
    let inf = info c s0 in
    match inf.verdict, inf.accepting with
    | V_all_pred p, _ -> decided p 0
    | V_empty, _ -> fill no_decision
    | V_pending, [ p ] when col = c.n_terms -> decided p 0
    | V_pending, _ when col = c.n_terms -> fill no_decision
    | V_pending, _ -> (
      let s1 = trans_get c s0 col in
      if s1 >= 0 then
        match (info c s1).verdict with
        | V_all_pred p -> decided p 1
        | V_empty | V_pending -> fill no_decision)
  end

let learn c x w i =
  let col = column c w i in
  if col >= 0 then learn_column c x col

(* {2 Learn-back} *)

let learned_count c = c.n_learned

let learned_since c mark =
  let rec take k l acc =
    match l with
    | e :: rest when k > 0 -> take (k - 1) rest (e :: acc)
    | _ -> acc
  in
  take (c.n_learned - mark) c.learned []

(* Each entry is recomputed from [c]'s own states, never copied, so a
   wrong or foreign entry can only cost a lookup.  Entries out of range
   for [c] are skipped, and so are cells [c] already knows. *)
let replay c entries =
  let n_nts = Grammar.num_nonterminals (Analysis.grammar c.anl) in
  List.iter
    (function
      | Learned_cell (x, col) ->
        if
          x >= 0 && x < n_nts && col >= 0 && col <= c.n_terms
          && c.decisions.((x * (c.n_terms + 1)) + col) = no_entry
        then learn_column c x col
      | Decoded_state sid -> if sid >= 0 && sid < c.n_states then ignore (info c sid))
    entries

let find_trans c sid a =
  let s = trans_get c sid a in
  if s < 0 then None else Some s

let add_trans c sid a sid' =
  if a >= 0 && a < c.n_terms then begin
    let row =
      let row = c.trans.(sid) in
      if row != no_row then row
      else begin
        (* Copy-on-write: seed the fresh row from the layered read view
           (base row, image row, or image behind the base), so once
           installed it fully shadows the layers below for reads. *)
        let row = Array.init (max 1 c.n_terms) (fun t -> trans_get c sid t) in
        c.trans.(sid) <- row;
        row
      end
    in
    (* Idempotent: re-adding an existing transition (e.g. [absorb]
       replaying a base fact the destination already has) must not
       double-count. *)
    if row.(a) < 0 then begin
      row.(a) <- sid';
      c.n_trans <- c.n_trans + 1
    end
  end

let find_closure c cfg =
  let id =
    match Config.Sll_tbl.find_opt c.cfg_ids cfg with
    | Some _ as id -> id
    | None -> (
      match c.base with
      | None -> None
      | Some b -> Config.Sll_tbl.find_opt b.cfg_ids cfg)
  in
  match id with
  | None -> None
  | Some id -> closure_of_id c id

let add_closure c cfg result =
  let id = config_id c cfg in
  c.closures <- grow c.closures id None;
  c.closures.(id) <- Some result

(* An independent cache seeded with this one's contents: subsequent
   additions to either copy do not affect the other.  State/config ids are
   preserved.  (Info records and key arrays are immutable once written and
   are shared; transition rows are mutable and are duplicated.  An
   overlay's base is immutable by construction and stays shared.) *)
let copy c =
  {
    c with
    cfg_ids = Config.Sll_tbl.copy c.cfg_ids;
    cfgs = Array.copy c.cfgs;
    closures = Array.copy c.closures;
    state_ids = Key_tbl.copy c.state_ids;
    keys = Array.copy c.keys;
    infos = Array.copy c.infos;
    trans =
      Array.map (fun row -> if row == no_row then row else Array.copy row) c.trans;
    inits = Array.copy c.inits;
    decisions = Array.copy c.decisions;
  }

(* {2 Freezing and overlays}

   [freeze] snapshots a plain cache into a value that is never mutated
   again; under the OCaml memory model, data that is published before
   [Domain.spawn] and never written afterwards can be read from any number
   of domains without synchronization, so one frozen snapshot serves a
   whole worker pool.  Each worker consults the snapshot through its own
   [overlay] — an ordinary [t] whose misses extend a private layer — and
   the layers are merged back into a master cache with [absorb] between
   rounds, so warm-up compounds.

   [absorb] is deliberately value-level: it re-interns the source's config
   lists into the destination rather than assuming compatible state
   numbering.  Config values ([s_pred], [s_frames], [s_ctx]) are meaningful
   process-wide because every cache of one analysis shares the same
   {!Costar_grammar.Frames} interner, so this is exact, and it makes
   [absorb] idempotent and content-level order-independent. *)

type frozen = t

let freeze c =
  match c.base with
  | Some _ -> invalid_arg "Cache.freeze: cannot freeze an overlay"
  | None -> copy c

let frozen_num_states (fz : frozen) = fz.n_states
let frozen_num_transitions (fz : frozen) = num_transitions fz

let overlay (fz : frozen) =
  {
    anl = fz.anl;
    frames = fz.frames;
    n_terms = fz.n_terms;
    uniq = fz.uniq;
    base = Some fz;
    base_cfgs = fz.n_cfgs;
    base_states = fz.n_states;
    cfg_ids = Config.Sll_tbl.create 64;
    cfgs = Array.make 64 dummy_cfg;
    closures = Array.make (fz.n_cfgs + 64) None;
    n_cfgs = fz.n_cfgs;
    state_ids = Key_tbl.create 64;
    keys = Array.make 64 no_row;
    infos = Array.make 64 dummy_info;
    trans = Array.make (fz.n_states + 64) no_row;
    n_states = fz.n_states;
    n_trans = 0;
    inits = Array.make (Array.length fz.inits) (-1);
    (* The overlay starts with the snapshot's table, so a hit stays one
       read. *)
    decisions = Array.copy fz.decisions;
    (* Reads that miss the overlay fall to [base], which consults its own
       image if it has one — the overlay needs no direct image pointer. *)
    img = None;
    learned = [];
    n_learned = 0;
  }

let overlay_new_states c = c.n_states - c.base_states

let absorb dst src =
  if dst != src then begin
    (* src state id -> dst state id, by re-interning config values. *)
    let map = Hashtbl.create 64 in
    let map_sid sid =
      match Hashtbl.find_opt map sid with
      | Some d -> d
      | None ->
        let d = intern dst (info src sid).configs in
        Hashtbl.add map sid d;
        d
    in
    (* Replay every transition materialized at src's own layer.  Rows for
       base-range states were seeded from the base row (copy-on-write), so
       some replayed entries are base facts the destination already has —
       harmless, [add_trans] is idempotent. *)
    for sid = 0 to src.n_states - 1 do
      let row = src.trans.(sid) in
      if row != no_row then
        for a = 0 to Array.length row - 1 do
          let s' = row.(a) in
          if s' >= 0 then add_trans dst (map_sid sid) a (map_sid s')
        done
    done;
    Array.iteri
      (fun x s ->
        if s >= 0 && init_get dst x < 0 then add_init dst x (map_sid s))
      src.inits;
    (* Closure memos recorded at src's layer.  Results are config values,
       valid verbatim in dst (shared frames interner); recomputation is
       deterministic, so overwriting an existing entry rewrites it with an
       equal value. *)
    for id = 0 to src.n_cfgs - 1 do
      if id < Array.length src.closures then
        match src.closures.(id) with
        | None -> ()
        | Some r -> add_closure dst (cfg_of_id src id) r
    done;
    (* Table entries are facts of the same DFA (by value), so they agree
       wherever both caches know them; take the ones [dst] lacks. *)
    Array.iteri
      (fun k e -> if dst.decisions.(k) = no_entry then dst.decisions.(k) <- e)
      src.decisions
  end

(* {2 Persistence: flat cache images (format v3)}

   One contiguous int32-LE file (word discipline shared with `costar
   tables` via {!Costar_grammar.Flatimg}), laid out so a process can
   [Unix.map_file] it read-only and serve predictions straight off the
   mapping — no unmarshalling, no per-process heap copy, N processes
   sharing one page-cache image.

     header   [magic | version=3 | endian sentinel | fp bytes | digest
               bytes | payload words | FNV-1a checksum of payload]
     strings  grammar fingerprint, then frames digest, bytes packed LE
     payload  META   n_terms n_nts n_states n_prods
              INITS  n_nts words        (initial state id or -1)
              TRANS  n_states*n_terms   (dense successor matrix, -1 absent)
              INDEX  n_states words     (config-block offset per state)
              DATA   per state: n_configs, then per config:
                       pred, ctx (-1 accept | nonterminal id), n_frames,
                       per frame: n_syms, per symbol: kind (0 T | 1 NT), id

   Closure memos are deliberately absent: they are recomputed
   deterministically on demand, and [compute_info] rebuilds verdict boxes
   from the configuration lists, so configurations + transitions + inits
   are the whole cache.  Everything is validated — bounds, ranges, block
   contiguity, checksum — before any offset is trusted; hot readers then
   use unchecked loads. *)

let image_magic = 0x52334143 (* "CA3R" in LE bytes *)
let image_version = 3
let endian_sentinel = 0x01020304

type image_error =
  | Img_io of string
  | Img_bad_magic
  | Img_bad_version of int
  | Img_endian_mismatch
  | Img_truncated
  | Img_checksum_mismatch
  | Img_fingerprint_mismatch
  | Img_digest_mismatch
  | Img_malformed of string

let image_error_to_string = function
  | Img_io msg -> msg
  | Img_bad_magic ->
    "not a costar cache image (bad magic); regenerate it with `costar \
     analyze --emit-image`"
  | Img_bad_version v ->
    Printf.sprintf
      "unsupported cache-image format version %d (this build reads version \
       %d); regenerate it with `costar analyze --emit-image`"
      v image_version
  | Img_endian_mismatch ->
    "cache image byte order does not match this host (big-endian mapping \
     of a little-endian image)"
  | Img_truncated -> "corrupt cache image (truncated)"
  | Img_checksum_mismatch -> "corrupt cache image (checksum mismatch)"
  | Img_fingerprint_mismatch ->
    "cache image was built for a different grammar (fingerprint mismatch); \
     regenerate it with `costar analyze --emit-image`"
  | Img_digest_mismatch ->
    "cache image was built against a different suffix table (incompatible \
     build); regenerate it with `costar analyze --emit-image`"
  | Img_malformed what ->
    Printf.sprintf "corrupt cache image (malformed %s)" what

(* Bytes of a string packed four-per-word, little-endian within a word. *)
let pack_bytes s =
  let n = String.length s in
  Array.init ((n + 3) / 4) (fun i ->
      let byte j = if (4 * i) + j < n then Char.code s.[(4 * i) + j] else 0 in
      byte 0 lor (byte 1 lsl 8) lor (byte 2 lsl 16) lor (byte 3 lsl 24))

let unpack_bytes words ~at ~len =
  String.init len (fun i ->
      let w = Flatimg.get words (at + (i / 4)) in
      Char.chr ((w lsr (8 * (i mod 4))) land 0xff))

let words_of_bytes n = (n + 3) / 4

let push_config c b (cfg : Config.sll) =
  Flatimg.push b cfg.Config.s_pred;
  Flatimg.push b (Config.ctx_code cfg.Config.s_ctx);
  let frames = Frames.frames_of_spine c.frames cfg.Config.s_frames in
  Flatimg.push b (List.length frames);
  List.iter
    (fun syms ->
      Flatimg.push b (List.length syms);
      List.iter
        (function
          | T a ->
            Flatimg.push b 0;
            Flatimg.push b a
          | NT x ->
            Flatimg.push b 1;
            Flatimg.push b x)
        syms)
    frames

let image_words ~fingerprint c =
  let g = Analysis.grammar c.anl in
  let n_nts = Grammar.num_nonterminals g in
  let digest = Frames.fingerprint c.frames in
  (* Per-state configuration blocks first: the index needs their sizes. *)
  let blocks =
    Array.init c.n_states (fun sid ->
        let b = ref [] in
        let inf = info c sid in
        Flatimg.push b (List.length inf.configs);
        List.iter (push_config c b) inf.configs;
        Array.of_list (List.rev !b))
  in
  let p = ref [] in
  Flatimg.push p c.n_terms;
  Flatimg.push p n_nts;
  Flatimg.push p c.n_states;
  Flatimg.push p (Array.length c.uniq);
  for x = 0 to n_nts - 1 do
    Flatimg.push p (init_get c x)
  done;
  for sid = 0 to c.n_states - 1 do
    for a = 0 to c.n_terms - 1 do
      Flatimg.push p (trans_get c sid a)
    done
  done;
  let off = ref 0 in
  Array.iter
    (fun b ->
      Flatimg.push p !off;
      off := !off + Array.length b)
    blocks;
  let payload =
    Array.concat
      (Array.of_list (List.rev !p) :: Array.to_list blocks)
  in
  let h = ref [] in
  Flatimg.push h image_magic;
  Flatimg.push h image_version;
  Flatimg.push h endian_sentinel;
  Flatimg.push h (String.length fingerprint);
  Flatimg.push h (String.length digest);
  Flatimg.push h (Array.length payload);
  Flatimg.push h (Flatimg.checksum payload);
  Array.concat
    [ Array.of_list (List.rev !h); pack_bytes fingerprint; pack_bytes digest;
      payload ]

let image_bytes ~fingerprint c =
  let words = image_words ~fingerprint c in
  let buf = Buffer.create (4 * Array.length words) in
  Flatimg.add_le_words buf words;
  Buffer.contents buf

let save_image ~fingerprint c file =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc (image_bytes ~fingerprint c))

exception Img_err of image_error

(* Validate a candidate image end to end — header, checksum, identity,
   then a full structural walk over every table and every configuration
   block — and return the admitted offsets.  Nothing from the file is
   trusted until this returns: the walk bounds-checks every read against
   the payload and every id against its range, and requires the config
   blocks to tile the payload tail exactly (no gaps, no trailing bytes).
   After admission the hot paths may use unchecked loads. *)
let validate_image ~anl ~fingerprint words =
  let fail e = raise_notrace (Img_err e) in
  let dim = Flatimg.dim words in
  try
    if dim < 7 then fail Img_truncated;
    (* A byte-swapped mapping (big-endian host over the LE file) swaps the
       magic word itself, so it must be recognized here, before any other
       field is believed. *)
    (match Flatimg.get words 0 land 0xffffffff with
    | w when w = image_magic -> ()
    | 0x43413352 (* image_magic byte-swapped *) -> fail Img_endian_mismatch
    | _ -> fail Img_bad_magic);
    if Flatimg.get words 2 land 0xffffffff <> endian_sentinel then
      fail (Img_malformed "endian sentinel");
    let version = Flatimg.get words 1 in
    if version <> image_version then fail (Img_bad_version version);
    let n_fp = Flatimg.get words 3 in
    let n_dg = Flatimg.get words 4 in
    let n_pay = Flatimg.get words 5 in
    if n_fp < 0 || n_fp > 4096 || n_dg < 0 || n_dg > 4096 || n_pay < 0 then
      fail (Img_malformed "header lengths");
    let fp_at = 7 in
    let dg_at = fp_at + words_of_bytes n_fp in
    let pay_at = dg_at + words_of_bytes n_dg in
    if pay_at + n_pay <> dim then fail Img_truncated;
    if
      Flatimg.checksum_i32 words ~pos:pay_at ~len:n_pay
      <> Flatimg.get words 6 land 0xffffffff
    then fail Img_checksum_mismatch;
    if unpack_bytes words ~at:fp_at ~len:n_fp <> fingerprint then
      fail Img_fingerprint_mismatch;
    if
      unpack_bytes words ~at:dg_at ~len:n_dg
      <> Frames.fingerprint (Analysis.frames anl)
    then fail Img_digest_mismatch;
    (* Walk every table and configuration block of the payload. *)
    if n_pay < 4 then fail (Img_malformed "payload header");
    let g = Analysis.grammar anl in
    let n_terms = Flatimg.get words pay_at in
    let n_nts = Flatimg.get words (pay_at + 1) in
    let n_states = Flatimg.get words (pay_at + 2) in
    let n_prods = Flatimg.get words (pay_at + 3) in
    if
      n_terms <> Grammar.num_terminals g
      || n_nts <> Grammar.num_nonterminals g
      || n_prods <> Grammar.num_productions g
      || n_states < 0
    then fail (Img_malformed "grammar shape");
    let pay_end = pay_at + n_pay in
    let inits_at = pay_at + 4 in
    let trans_at = inits_at + n_nts in
    let index_at = trans_at + (n_states * n_terms) in
    let data_at = index_at + n_states in
    if data_at > pay_end then fail Img_truncated;
    for x = 0 to n_nts - 1 do
      let s = Flatimg.get words (inits_at + x) in
      if s < -1 || s >= n_states then fail (Img_malformed "initial state")
    done;
    for i = 0 to (n_states * n_terms) - 1 do
      let s = Flatimg.get words (trans_at + i) in
      if s < -1 || s >= n_states then fail (Img_malformed "transition")
    done;
    (* The config blocks must tile [data_at, pay_end) in state order. *)
    let cur = ref data_at in
    let next () =
      if !cur >= pay_end then fail Img_truncated;
      let v = Flatimg.get words !cur in
      incr cur;
      v
    in
    for sid = 0 to n_states - 1 do
      if Flatimg.get words (index_at + sid) <> !cur - data_at then
        fail (Img_malformed "state index");
      let n_cfgs = next () in
      if n_cfgs < 0 then fail (Img_malformed "config count");
      for _ = 1 to n_cfgs do
        let pred = next () in
        if pred < 0 || pred >= n_prods then fail (Img_malformed "prediction");
        let ctx = next () in
        if ctx < -1 || ctx >= n_nts then fail (Img_malformed "context");
        let n_frames = next () in
        if n_frames < 0 then fail (Img_malformed "frame count");
        for _ = 1 to n_frames do
          let n_syms = next () in
          if n_syms < 0 then fail (Img_malformed "symbol count");
          for _ = 1 to n_syms do
            let kind = next () in
            let v = next () in
            match kind with
            | 0 -> if v < 0 || v >= n_terms then fail (Img_malformed "terminal")
            | 1 -> if v < 0 || v >= n_nts then fail (Img_malformed "nonterminal")
            | _ -> fail (Img_malformed "symbol kind")
          done
        done
      done
    done;
    if !cur <> pay_end then fail (Img_malformed "trailing words");
    Ok
      {
        i_words = words;
        i_terms = n_terms;
        i_states = n_states;
        i_inits_at = inits_at;
        i_trans_at = trans_at;
        i_index_at = index_at;
        i_data_at = data_at;
      }
  with Img_err e -> Error e

(* An image-backed cache: arrays pre-sized so the image's state-id range
   is addressable, contents served lazily from the mapping. *)
let image_cache ~anl (im : image) =
  let g = Analysis.grammar anl in
  {
    anl;
    frames = Analysis.frames anl;
    n_terms = im.i_terms;
    uniq = unique_pairs g;
    base = None;
    base_cfgs = 0;
    base_states = 0;
    cfg_ids = Config.Sll_tbl.create 256;
    cfgs = Array.make 256 dummy_cfg;
    closures = Array.make 256 None;
    n_cfgs = 0;
    state_ids = Key_tbl.create 64;
    keys = Array.make (im.i_states + 64) no_row;
    infos = Array.make (im.i_states + 64) dummy_info;
    trans = Array.make (im.i_states + 64) no_row;
    n_states = im.i_states;
    n_trans = 0;
    inits = Array.make (max 1 (Grammar.num_nonterminals g)) (-1);
    (* Images do not store the table: a loaded cache starts from the
       static one and relearns the rest from the image's states. *)
    decisions = fresh_decisions anl;
    img = Some im;
    learned = [];
    n_learned = 0;
  }

let image_backed c = c.img <> None

(* Heap decode — the differential oracle for the mmap path: re-intern
   every image state in id order (reproducing identical ids) and replay
   the dense tables. *)
let of_image ~anl (im : image) =
  let c = create anl in
  for sid = 0 to im.i_states - 1 do
    let configs = image_state_configs c.frames im sid in
    if intern c configs <> sid then
      invalid_arg "Cache.of_image: inconsistent state numbering"
  done;
  for sid = 0 to im.i_states - 1 do
    for a = 0 to im.i_terms - 1 do
      let s' = Flatimg.get im.i_words (im.i_trans_at + (sid * im.i_terms) + a) in
      if s' >= 0 then add_trans c sid a s'
    done
  done;
  for x = 0 to Array.length c.inits - 1 do
    let s = Flatimg.get im.i_words (im.i_inits_at + x) in
    if s >= 0 then add_init c x s
  done;
  c

(* The magic is checked before the alignment, so a non-image blob is
   reported as such rather than as a truncated image. *)
let validated_image_of_bytes ~anl ~fingerprint s =
  let n = String.length s in
  if n >= 4 && Flatimg.le_word s 0 <> image_magic then Error Img_bad_magic
  else if n land 3 <> 0 then Error Img_truncated
  else
    let words =
      Flatimg.of_words (Flatimg.words_of_le_string s ~pos:0 ~count:(n / 4))
    in
    validate_image ~anl ~fingerprint words

(* Heap decode from bytes (endian-independent: the LE decode is explicit). *)
let of_image_bytes ~anl ~fingerprint s =
  match validated_image_of_bytes ~anl ~fingerprint s with
  | Error _ as e -> e
  | Ok im -> (
    match of_image ~anl im with
    | c -> Ok c
    | exception Invalid_argument msg -> Error (Img_malformed msg))

let read_file file =
  match open_in_bin file with
  | exception Sys_error msg -> Error (Img_io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | exception _ -> Error (Img_io (file ^ ": unreadable cache image"))
        | s -> Ok s)

let map_image_file file =
  match Unix.openfile file [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Img_io (file ^ ": " ^ Unix.error_message e))
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        let len = (Unix.fstat fd).Unix.st_size in
        if len land 3 <> 0 || len < 7 * 4 then Error Img_truncated
        else
          match
            Unix.map_file fd Bigarray.int32 Bigarray.c_layout false
              [| len / 4 |]
          with
          | exception Unix.Unix_error (e, _, _) ->
            Error (Img_io (file ^ ": mmap failed: " ^ Unix.error_message e))
          | ga -> Ok (Bigarray.array1_of_genarray ga))

(* Check the leading magic before mapping, so a non-image file (whose size
   need not even be word-aligned) is reported as such rather than as a
   truncated image. *)
let sniff_magic file =
  match open_in_bin file with
  | exception Sys_error msg -> Error (Img_io msg)
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic 4 with
        | exception _ -> Error Img_truncated
        | s ->
          if Flatimg.le_word s 0 = image_magic then Ok ()
          else Error Img_bad_magic)

(* Map the file and serve straight off the mapping.  On a big-endian host
   the mapped words are byte-swapped (the sentinel detects this); fall
   back to the explicit-LE heap decode so the loader works everywhere —
   only the zero-copy sharing is LE-specific. *)
let load_image ~anl ~fingerprint file =
  match
    match sniff_magic file with
    | Error _ as e -> e
    | Ok () -> map_image_file file
  with
  | Error _ as e -> e
  | Ok words -> (
    match validate_image ~anl ~fingerprint words with
    | Ok im -> Ok (image_cache ~anl im)
    | Error Img_endian_mismatch -> (
      match read_file file with
      | Error _ as e -> e
      | Ok s -> of_image_bytes ~anl ~fingerprint s)
    | Error _ as e -> e)

(* Heap-decoded load (the oracle path: same validation, no mapping). *)
let load_image_heap ~anl ~fingerprint file =
  match read_file file with
  | Error _ as e -> e
  | Ok s -> of_image_bytes ~anl ~fingerprint s
