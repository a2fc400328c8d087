open Symbols

(* A tree is a handle on a postorder event buffer: one event per tree
   node, two int32s per event, off the OCaml heap.

   - [ev.{2i}] is the kind/label word: the tag in the low [tag_bits]
     bits, the payload above them — a leaf's token index into [word], a
     node's nonterminal, or an error marker's repaired symbol.
   - [ev.{2i+1}] is the size of the subtree rooted at event [i], so the
     subtree spans events [i - size + 1 .. i], and its last child ends at
     [i - 1].

   A parse appends to one buffer ([Events]) and hands out a handle on its
   used prefix; nothing is boxed per node until a consumer views it.

   The elements are int32, not native ints: a fresh buffer per parse is
   off-heap memory the major GC paces itself against, and half the bytes
   means half the major work it triggers.  Native code reads an int32
   bigarray of statically known kind without boxing.  The price is a
   range: token indices below 2^28 and at most 2^30 events, checked
   below. *)

type int_array = (int32, Bigarray.int32_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Tags; the matches below spell them as literals. *)
let tag_bits = 3
let tag_mask = (1 lsl tag_bits) - 1
let tag_leaf = 0
let tag_node = 1
let tag_error_none = 2
let tag_error_t = 3
let tag_error_nt = 4

type t = {
  ev : int_array;
  word : Word.t;
  root : int;  (** event index of the root *)
}

type forest = t list

type view =
  | Leaf of Token.t
  | Node of nonterminal * t list
  | Error of symbol option * t list

let error_word = function
  | None -> tag_error_none
  | Some (T a) -> (a lsl tag_bits) lor tag_error_t
  | Some (NT x) -> (x lsl tag_bits) lor tag_error_nt

(* The grammar symbol of an event's kind/label word; [None] for a
   skipped-input marker. *)
let symbol_of (word : Word.t) w =
  let p = w asr tag_bits in
  match w land tag_mask with
  | 0 -> Some (T (Word.kind word p))
  | 1 | 4 -> Some (NT p)
  | 3 -> Some (T p)
  | _ -> None

let alloc n : int_array = Bigarray.Array1.create Bigarray.int32 Bigarray.c_layout n
let max_payload = (1 lsl (31 - tag_bits)) - 1
let max_events = 1 lsl 30

module Events = struct
  type tree = t
  type t = { mutable a : int_array }

  let create n = { a = alloc (2 * max 8 n) }

  (* Grow to hold event [i], keeping every event written so far: a
     caller may still resume from any earlier state. *)
  let grow b i =
    if i >= max_events then invalid_arg "Tree.Events: more than 2^30 events";
    let old = b.a in
    let dim = Bigarray.Array1.dim old in
    let a = alloc (max (2 * dim) (2 * (i + 1))) in
    Bigarray.Array1.blit old (Bigarray.Array1.sub a 0 dim);
    b.a <- a

  let set b i word size =
    if (2 * i) + 1 >= Bigarray.Array1.dim b.a then grow b i;
    let a = b.a in
    Bigarray.Array1.unsafe_set a (2 * i) (Int32.of_int word);
    Bigarray.Array1.unsafe_set a ((2 * i) + 1) (Int32.of_int size)

  let leaf b i tok =
    if tok > max_payload then invalid_arg "Tree.Events.leaf: token index past 2^28";
    set b i (tok lsl tag_bits) 1
  let node b i x ~first = set b i ((x lsl tag_bits) lor tag_node) (i - first + 1)
  let error b i s ~first = set b i (error_word s) (i - first + 1)

  let symbol b word i = symbol_of word (Int32.to_int (Bigarray.Array1.get b.a (2 * i)))
  let size b i = Int32.to_int (Bigarray.Array1.get b.a ((2 * i) + 1))
  let tree b word i : tree = { ev = b.a; word; root = i }

  let seal b word n : tree =
    if n < 1 then invalid_arg "Tree.Events.seal: no events";
    { ev = Bigarray.Array1.sub b.a 0 (2 * n); word; root = n - 1 }

  let bytes b n =
    let s = Bytes.create (8 * n) in
    for j = 0 to (2 * n) - 1 do
      Bytes.set_int32_le s (4 * j) (Bigarray.Array1.get b.a j)
    done;
    Bytes.unsafe_to_string s
end

(* --- Reading events ------------------------------------------------------ *)

let word_at t i = Int32.to_int (Bigarray.Array1.unsafe_get t.ev (2 * i))
let size_at t i = Int32.to_int (Bigarray.Array1.unsafe_get t.ev ((2 * i) + 1))
let tag_at t i = word_at t i land tag_mask
let payload_at t i = word_at t i asr tag_bits
let first t = t.root - size_at t t.root + 1
let sub t i = { t with root = i }

let symbol_at t i = symbol_of t.word (word_at t i)

(* The children of event [i], left to right: walk back from [i - 1] by
   subtree sizes, consing, so the leftmost child comes out first. *)
let children t i =
  let lo = i - size_at t i + 1 in
  let rec go j acc = if j < lo then acc else go (j - size_at t j) (sub t j :: acc) in
  go (i - 1) []

let view t =
  let i = t.root in
  match tag_at t i with
  | 0 -> Leaf (Word.token t.word (payload_at t i))
  | 1 -> Node (payload_at t i, children t i)
  | _ -> Error (symbol_at t i, children t i)

let root t =
  match symbol_at t t.root with
  | Some s -> s
  | None -> invalid_arg "Tree.root: skipped-input error node"

(* --- Copying constructors ------------------------------------------------ *)

let leaf tok =
  let b = Events.create 1 in
  Events.leaf b 0 0;
  Events.seal b (Word.of_tokens [ tok ]) 1

(* Concatenate the kids' events under a new root.  The kids may point
   into different words, so their leaves are renumbered into one fresh
   token array, in yield order (which is postorder leaf order). *)
let build root_word kids =
  let n = List.fold_left (fun a k -> a + size_at k k.root) 1 kids in
  let b = Events.create n in
  let j = ref 0 and toks = ref [] and ntok = ref 0 in
  List.iter
    (fun k ->
      for i = first k to k.root do
        let w =
          if tag_at k i = tag_leaf then begin
            toks := Word.token k.word (payload_at k i) :: !toks;
            incr ntok;
            (!ntok - 1) lsl tag_bits
          end
          else word_at k i
        in
        Events.set b !j w (size_at k i);
        incr j
      done)
    kids;
  Events.set b !j root_word n;
  Events.seal b (Word.of_tokens (List.rev !toks)) n

let node x kids = build ((x lsl tag_bits) lor tag_node) kids
let error s kids = build (error_word s) kids

(* --- Walks ---------------------------------------------------------------
   Every traversal below is a loop over the event range or runs on an
   explicit heap stack, so depth costs no more than width. *)

(* A stack of ints in segments small enough for the minor heap: 16 slots
   first, then [seg].  A deep walk grows it a segment at a time: nothing
   is copied, and there is no doubling spike of one growing array to
   raise the heap's peak.  The last segment emptied is kept, so a walk
   that moves back and forth across a segment boundary allocates only
   the list cell. *)
module Stack = struct
  let seg = 255

  type t = {
    mutable a : int array;  (** the top segment *)
    mutable n : int;  (** slots used in [a] *)
    mutable below : int array list;  (** full segments, nearest first *)
    mutable spare : int array;  (** [[||]] or an emptied segment *)
  }

  let create () = { a = Array.make 16 0; n = 0; below = []; spare = [||] }

  let push s v =
    if s.n = Array.length s.a then begin
      s.below <- s.a :: s.below;
      if Array.length s.spare = 0 then s.a <- Array.make seg 0
      else begin
        s.a <- s.spare;
        s.spare <- [||]
      end;
      s.n <- 0
    end;
    Array.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  (* Step down to the full segment below an empty top one. *)
  let settle s =
    if s.n = 0 then
      match s.below with
      | a :: rest ->
        s.spare <- s.a;
        s.a <- a;
        s.below <- rest;
        s.n <- Array.length a
      | [] -> ()

  let pop s =
    settle s;
    s.n <- s.n - 1;
    Array.unsafe_get s.a s.n

  let top s =
    settle s;
    Array.unsafe_get s.a (s.n - 1)

  let is_empty s = s.n = 0 && match s.below with [] -> true | _ -> false
end

(* Push the children of event [i] so that the leftmost is popped first;
   [code j] is what is pushed for child [j]. *)
let push_children st t i code =
  let lo = i - size_at t i + 1 in
  let j = ref (i - 1) in
  while !j >= lo do
    Stack.push st (code !j);
    j := !j - size_at t !j
  done

let size t = size_at t t.root

let count t p =
  let c = ref 0 in
  for i = first t to t.root do
    if p (tag_at t i) then incr c
  done;
  !c

let width t = count t (fun tag -> tag = tag_leaf)
let has_errors t = count t (fun tag -> tag >= tag_error_none) > 0

let yield t =
  let acc = ref [] in
  for i = t.root downto first t do
    if tag_at t i = tag_leaf then acc := Word.token t.word (payload_at t i) :: !acc
  done;
  !acc

let yield_forest f = List.concat_map yield f

(* One pass in postorder: the stack holds, for each finished subtree not
   yet claimed by a parent, its first event and its depth, packed into
   one int as [(first lsl 31) lor depth] (both are below 2^31). *)
let depth t =
  let st = Stack.create () in
  for i = first t to t.root do
    if tag_at t i = tag_leaf then Stack.push st ((i lsl 31) lor 1)
    else begin
      let lo = i - size_at t i + 1 in
      let d = ref 0 in
      while (not (Stack.is_empty st)) && Stack.top st lsr 31 >= lo do
        let dk = Stack.pop st land ((1 lsl 31) - 1) in
        if dk > !d then d := dk
      done;
      Stack.push st ((lo lsl 31) lor (!d + 1))
    end
  done;
  Stack.top st land ((1 lsl 31) - 1)

let nonterminals t =
  let acc = ref Int_set.empty in
  for i = first t to t.root do
    match tag_at t i with
    | 1 | 4 -> acc := Int_set.add (payload_at t i) !acc
    | _ -> ()
  done;
  !acc

(* [compare] is the structural order of the boxed view: constructors
   Leaf < Node < Error; leaves by terminal then lexeme, nodes by
   nonterminal, error markers by symbol option; then the children, as
   lists.  It runs as a lexicographic comparison of the two trees'
   preorder streams, where a node's children are followed by a close
   marker that sorts before any node (a shorter child list is smaller). *)
let close = -1

let next t st =
  let c = Stack.pop st in
  if c <> close && tag_at t c <> tag_leaf then begin
    Stack.push st close;
    push_children st t c Fun.id
  end;
  c

let ctor_rank = function 0 -> 0 | 1 -> 1 | _ -> 2

let compare_event t1 i1 t2 i2 =
  let r1 = tag_at t1 i1 and r2 = tag_at t2 i2 in
  let c = Int.compare (ctor_rank r1) (ctor_rank r2) in
  if c <> 0 then c
  else if r1 = tag_leaf then
    let a1 = payload_at t1 i1 and a2 = payload_at t2 i2 in
    let c = Int.compare (Word.kind t1.word a1) (Word.kind t2.word a2) in
    if c <> 0 then c else String.compare (Word.lexeme t1.word a1) (Word.lexeme t2.word a2)
  else if r1 = tag_node then Int.compare (payload_at t1 i1) (payload_at t2 i2)
  else Option.compare compare_symbol (symbol_at t1 i1) (symbol_at t2 i2)

let compare t1 t2 =
  let s1 = Stack.create () and s2 = Stack.create () in
  Stack.push s1 t1.root;
  Stack.push s2 t2.root;
  let rec go () =
    match Stack.is_empty s1, Stack.is_empty s2 with
    | true, true -> 0
    | true, false -> -1
    | false, true -> 1
    | false, false ->
      let c1 = next t1 s1 and c2 = next t2 s2 in
      if c1 = close && c2 = close then go ()
      else if c1 = close then -1
      else if c2 = close then 1
      else
        let c = compare_event t1 c1 t2 c2 in
        if c <> 0 then c else go ()
  in
  go ()

let equal t1 t2 = size t1 = size t2 && compare t1 t2 = 0

(* --- Labels and lexemes, read in place ------------------------------------
   A leaf's lexeme is a slice of the scanned input (or its token's own
   string), and a non-leaf's label is a constant prefix plus a grammar
   name, so the renderers below copy bytes and build no string per
   node. *)

let lexeme_src t i =
  match t.word.Word.src with
  | Word.Buf b -> Token_buf.input b
  | Word.Tokens a -> a.(payload_at t i).Token.lexeme

let lexeme_ofs t i =
  match t.word.Word.src with
  | Word.Buf b -> Token_buf.start_ofs b (payload_at t i)
  | Word.Tokens _ -> 0

let lexeme_len t i =
  let p = payload_at t i in
  match t.word.Word.src with
  | Word.Buf b -> Token_buf.end_ofs b p - Token_buf.start_ofs b p
  | Word.Tokens a -> String.length a.(p).Token.lexeme

(* The grammar name in a non-leaf's label: the nonterminal of a node, the
   repaired symbol of an error marker, nothing for skipped input. *)
let label_name g t i =
  match tag_at t i with
  | 1 | 4 -> Grammar.nonterminal_name g (payload_at t i)
  | 3 -> Grammar.terminal_name g (payload_at t i)
  | _ -> ""

(* --- Rendering -------------------------------------------------------------
   [pp] lays a tree out as Format lays out ["@[<hov 1>(%s%a)@]"] with an
   ["@ "] before every child, from a line start, with its own copy of
   Format's engine (OCaml 5.1 format.ml) specialised to the tokens a tree
   makes and kept in int arrays.  Per event, that format string makes

   - [Pp_break] (["@ "]: one space, or a new line at the box's
     indentation), unless the event is the root;
   - for a node or an error marker, [Pp_begin] of its [hov 1] box;
   - [Pp_text]: ["(label"], or ["'lexeme'"] for a leaf;
   - after its last child, [")"] and [Pp_end].

   The queue here holds one entry per event: its break, its box and its
   text, followed by the [")"]/[Pp_end] pairs of the boxes that close
   right after it.  That grouping is exact.  A text's size is always
   known, so it prints as soon as the token before it has, in the same
   [advance_left] loop; the closing pairs likewise follow the entry they
   are appended to.  Only a break and a box can hold the queue back, and
   an entry remembers when its break has printed and its box has not.

   The state copies Format's fields one for one: the queue (a ring of
   entries addressed by absolute sequence numbers), the scan stack (left
   total and queue sequence of each break or box whose size is still
   unknown), the format stack (width and fits flag of each open printed
   box), [space_left], [left_total] and [right_total].  Each function
   below names the format.ml function it copies.  DESIGN.md §15 says why
   this is a copy of the queue and not a layout derived from subtree
   widths.

   The output goes out in chunks of at most [chunk] bytes, each through
   [pp_print_string] at its byte length, so Format's own queue drains as
   the text arrives (a chunk is a string the minor heap can hold). *)

let chunk = 1920

(* format.ml's [pp_infinity]: the size of a token forced out unknown. *)
let pp_infinity = 1000000010

type sink = To_formatter of Format.formatter | To_buffer of Buffer.t

(* A queue entry is [stride] ints.  A size below zero is unknown: minus
   [right_total] when the token was queued. *)
let e_code = 0 (* (i lsl 2) lor (2 unless a leaf) lor (1 until the break prints) *)
let e_break = 1 (* the break's size *)
let e_box = 2 (* the box's size *)
let e_len = 3 (* the text's length *)
let e_closes = 4 (* the boxes that close after the text *)
let stride = 5

type layout = {
  g : Grammar.t;
  tr : t;
  margin : int;
  max_indent : int;
  mutable space_left : int;
  mutable left_total : int;
  mutable right_total : int;
  mutable q : int array;
  mutable q_mask : int;  (** capacity in entries, less one (a power of two) *)
  mutable q_head : int;  (** sequence number of the front entry *)
  mutable q_tail : int;  (** sequence number of the next entry *)
  mutable scan : int array;  (** pairs (left total, seq lsl 1 lor is_break) *)
  mutable scan_n : int;
  boxes : Stack.t;  (** (width lsl 1) lor fits *)
  out : Bytes.t;
  mutable out_n : int;
  sink : sink;
}

(* --- Output --- *)

let flush_out l =
  if l.out_n > 0 then begin
    (match l.sink with
    | To_buffer b -> Buffer.add_subbytes b l.out 0 l.out_n
    | To_formatter ppf -> Format.pp_print_string ppf (Bytes.sub_string l.out 0 l.out_n));
    l.out_n <- 0
  end

(* Make room for [n <= chunk] more bytes. *)
let room l n = if l.out_n + n > chunk then flush_out l

let put_char l c =
  room l 1;
  Bytes.unsafe_set l.out l.out_n c;
  l.out_n <- l.out_n + 1

(* Copy [len] bytes of [s] from [ofs]; the caller made room for them. *)
let blit l s ofs len =
  Bytes.unsafe_blit_string s ofs l.out l.out_n len;
  l.out_n <- l.out_n + len

let rec put_sub l s ofs len =
  if len <= chunk then begin
    room l len;
    blit l s ofs len
  end
  else begin
    put_sub l s ofs chunk;
    put_sub l s (ofs + chunk) (len - chunk)
  end

let label_prefix tag = match tag with 1 -> "(" | 2 -> "(ERROR" | _ -> "(ERROR:"

let text_length l i =
  let t = l.tr in
  let tag = tag_at t i in
  if tag = tag_leaf then lexeme_len t i + 2
  else String.length (label_prefix tag) + String.length (label_name l.g t i)

(* [format_pp_token] of a [Pp_text] of [n] bytes. *)
let print_text l i n =
  l.space_left <- l.space_left - n;
  let t = l.tr in
  let tag = tag_at t i in
  if n > chunk then begin
    if tag = tag_leaf then begin
      put_char l '\'';
      put_sub l (lexeme_src t i) (lexeme_ofs t i) (n - 2);
      put_char l '\''
    end
    else begin
      let p = label_prefix tag in
      put_sub l p 0 (String.length p);
      put_sub l (label_name l.g t i) 0 (n - String.length p)
    end
  end
  else begin
    room l n;
    if tag = tag_leaf then begin
      Bytes.unsafe_set l.out l.out_n '\'';
      l.out_n <- l.out_n + 1;
      blit l (lexeme_src t i) (lexeme_ofs t i) (n - 2);
      Bytes.unsafe_set l.out l.out_n '\'';
      l.out_n <- l.out_n + 1
    end
    else begin
      let p = label_prefix tag in
      blit l p 0 (String.length p);
      blit l (label_name l.g t i) 0 (n - String.length p)
    end
  end

(* [break_new_line] for the break ("", 0, ""). *)
let break_new_line l width =
  put_char l '\n';
  let indent = min l.max_indent (l.margin - width) in
  l.space_left <- l.margin - indent;
  let k = ref indent in
  while !k > 0 do
    let n = min !k chunk in
    room l n;
    Bytes.unsafe_fill l.out l.out_n n ' ';
    l.out_n <- l.out_n + n;
    k := !k - n
  done

(* [format_pp_token] of a [Pp_break]. *)
let print_break l size =
  if not (Stack.is_empty l.boxes) then begin
    let b = Stack.top l.boxes in
    if b land 1 = 0 && size > l.space_left then break_new_line l (b asr 1)
    else begin
      l.space_left <- l.space_left - 1;
      put_char l ' '
    end
  end

(* [format_pp_token] of a [Pp_begin], with [pp_force_break_line]: a box
   may not open past [max_indent]. *)
let print_begin l size =
  if l.margin - l.space_left > l.max_indent && not (Stack.is_empty l.boxes) then begin
    let b = Stack.top l.boxes in
    if b asr 1 > l.space_left && b land 1 = 0 then break_new_line l (b asr 1)
  end;
  Stack.push l.boxes (((l.space_left - 1) lsl 1) lor Bool.to_int (size <= l.space_left))

(* [format_pp_token] of [n] [")"]/[Pp_end] pairs. *)
let print_closes l n =
  for _ = 1 to n do
    l.space_left <- l.space_left - 1;
    put_char l ')';
    if not (Stack.is_empty l.boxes) then ignore (Stack.pop l.boxes)
  done;
  l.left_total <- l.left_total + n

(* [advance_left] prints the front token once its size is known, or
   unknown while the pending text cannot fit what is left of the line. *)
let ready l size = size >= 0 || l.right_total - l.left_total >= l.space_left

let rec advance_left l =
  if l.q_head < l.q_tail then begin
    let k = stride * (l.q_head land l.q_mask) in
    let code = l.q.(k + e_code) in
    let broken =
      code land 1 = 0
      ||
      let size = l.q.(k + e_break) in
      ready l size
      && begin
           print_break l (if size >= 0 then size else pp_infinity);
           l.left_total <- l.left_total + 1;
           l.q.(k + e_code) <- code - 1;
           true
         end
    in
    let box = code land 2 = 2 in
    if broken && ((not box) || ready l l.q.(k + e_box)) then begin
      if box then begin
        let size = l.q.(k + e_box) in
        print_begin l (if size >= 0 then size else pp_infinity)
      end;
      let n = l.q.(k + e_len) in
      print_text l (code asr 2) n;
      l.left_total <- l.left_total + n;
      print_closes l l.q.(k + e_closes);
      l.q_head <- l.q_head + 1;
      advance_left l
    end
  end

(* --- Enqueueing tokens --- *)

let scan_push l seq is_break =
  if (2 * l.scan_n) + 1 >= Array.length l.scan then begin
    let a = Array.make (2 * Array.length l.scan) 0 in
    Array.blit l.scan 0 a 0 (2 * l.scan_n);
    l.scan <- a
  end;
  l.scan.(2 * l.scan_n) <- l.right_total;
  l.scan.((2 * l.scan_n) + 1) <- (seq lsl 1) lor is_break;
  l.scan_n <- l.scan_n + 1

(* [set_size]: [ty] is 1 to size the top break, 0 the top box.  An entry
   whose token already printed is popped without a write (Format writes
   into a record nobody reads any more). *)
let set_size l ty =
  if l.scan_n > 0 then begin
    let j = 2 * (l.scan_n - 1) in
    if l.scan.(j) < l.left_total then l.scan_n <- 0
    else begin
      let v = l.scan.(j + 1) in
      if v land 1 = ty then begin
        let seq = v lsr 1 in
        if seq >= l.q_head then begin
          let k = (stride * (seq land l.q_mask)) + if ty = 1 then e_break else e_box in
          l.q.(k) <- l.right_total + l.q.(k)
        end;
        l.scan_n <- l.scan_n - 1
      end
    end
  end

(* Queue event [i], after a break unless it is the root: [pp_print_space]
   ([pp_enqueue], [set_size], scan push), for a non-leaf
   [pp_open_box_gen] (queue, scan push), then [pp_print_string] of its
   text ([pp_enqueue], [advance_left]). *)
let event l i ~spaced ~box =
  if l.q_tail - l.q_head > l.q_mask then begin
    let cap = l.q_mask + 1 in
    let q = Array.make (2 * stride * cap) 0 in
    for s = l.q_head to l.q_tail - 1 do
      Array.blit l.q (stride * (s land l.q_mask)) q (stride * (s land ((2 * cap) - 1))) stride
    done;
    l.q <- q;
    l.q_mask <- (2 * cap) - 1
  end;
  let seq = l.q_tail in
  let k = stride * (seq land l.q_mask) in
  l.q_tail <- seq + 1;
  l.q.(k + e_code) <- (i lsl 2) lor (Bool.to_int box lsl 1) lor Bool.to_int spaced;
  l.q.(k + e_closes) <- 0;
  if spaced then begin
    l.q.(k + e_break) <- -l.right_total;
    l.right_total <- l.right_total + 1;
    set_size l 1;
    scan_push l seq 1
  end;
  if box then begin
    l.q.(k + e_box) <- -l.right_total;
    scan_push l seq 0
  end;
  let n = text_length l i in
  l.q.(k + e_len) <- n;
  l.right_total <- l.right_total + n;
  advance_left l

(* [pp_print_string ")"], then [pp_close_box]. *)
let close_box l =
  l.right_total <- l.right_total + 1;
  if l.q_head = l.q_tail then print_closes l 1
  else begin
    let k = (stride * ((l.q_tail - 1) land l.q_mask)) + e_closes in
    l.q.(k) <- l.q.(k) + 1;
    advance_left l
  end;
  set_size l 1;
  set_size l 0

(* A fresh formatter's state (format.ml's [pp_make_formatter]), a whole
   line to fill, less the system box that Format keeps open around
   everything: a tree puts no break at its level, so that box changes
   when the tree's tokens print, never what they print.  The walk visits
   events in preorder; at the end the queue is flushed as
   [pp_flush_queue] does. *)
let layout g t ~margin ~max_indent sink =
  let l =
    {
      g;
      tr = t;
      margin;
      max_indent;
      space_left = margin;
      left_total = 1;
      right_total = 1;
      q = Array.make (stride * 64) 0;
      q_mask = 63;
      q_head = 0;
      q_tail = 0;
      scan = Array.make 64 0;
      scan_n = 0;
      boxes = Stack.create ();
      out = Bytes.create chunk;
      out_n = 0;
      sink;
    }
  in
  let st = Stack.create () in
  Stack.push st (2 * t.root);
  while not (Stack.is_empty st) do
    let c = Stack.pop st in
    if c = close then close_box l
    else begin
      let i = c lsr 1 in
      let box = tag_at t i <> tag_leaf in
      event l i ~spaced:(c land 1 = 1) ~box;
      if box then begin
        Stack.push st close;
        let lo = i - size_at t i + 1 in
        let j = ref (i - 1) in
        while !j >= lo do
          Stack.push st ((2 * !j) + 1);
          j := !j - size_at t !j
        done
      end
    end
  done;
  l.right_total <- pp_infinity;
  advance_left l;
  flush_out l

let pp g ppf t =
  layout g t ~margin:(Format.pp_get_margin ppf ())
    ~max_indent:(Format.pp_get_max_indent ppf ()) (To_formatter ppf)

(* A fresh formatter's geometry, which [Fmt.str "%a" (pp g)] would use. *)
let to_string g t =
  let b = Buffer.create 256 in
  layout g t ~margin:78 ~max_indent:68 (To_buffer b);
  Buffer.contents b

(* --- DOT ------------------------------------------------------------------- *)

let rec add_int buf n =
  if n >= 10 then add_int buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))

(* Copy [s.[ofs .. ofs + len - 1]] with every double quote escaped. *)
let add_escaped buf s ofs len =
  for k = ofs to ofs + len - 1 do
    let c = String.unsafe_get s k in
    if c = '"' then Buffer.add_string buf "\\\"" else Buffer.add_char buf c
  done

(* Node ids are preorder numbers from 1, so a child's id is its parent's
   plus one plus the events of its earlier siblings.  Stack entries are
   pairs: [(j, id)] visits event [j] as node [id]; [(-1 - parent, kid)]
   prints the edge once the kid's subtree is done. *)
let to_dot g t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph parse_tree {\n  node [shape=box];\n";
  let name id =
    Buffer.add_string buf "  n";
    add_int buf id
  in
  let st = Stack.create () in
  Stack.push st t.root;
  Stack.push st 1;
  while not (Stack.is_empty st) do
    let id = Stack.pop st in
    let c = Stack.pop st in
    if c < 0 then begin
      name (-1 - c);
      Buffer.add_string buf " -> n";
      add_int buf id;
      Buffer.add_string buf ";\n"
    end
    else begin
      name id;
      Buffer.add_string buf " [label=\"";
      let tag = tag_at t c in
      if tag = tag_leaf then begin
        add_escaped buf (lexeme_src t c) (lexeme_ofs t c) (lexeme_len t c);
        Buffer.add_string buf "\", shape=ellipse];\n"
      end
      else begin
        let s = label_name g t c in
        if tag = tag_node then begin
          add_escaped buf s 0 (String.length s);
          Buffer.add_string buf "\"];\n"
        end
        else begin
          Buffer.add_string buf "ERROR";
          if tag <> tag_error_none then begin
            Buffer.add_string buf ": ";
            add_escaped buf s 0 (String.length s)
          end;
          Buffer.add_string buf "\", shape=diamond, color=red];\n"
        end;
        let lo = c - size_at t c + 1 in
        let j = ref (c - 1) in
        while !j >= lo do
          let kid = id + 1 + (!j - size_at t !j + 1 - lo) in
          Stack.push st (-1 - id);
          Stack.push st kid;
          Stack.push st !j;
          Stack.push st kid;
          j := !j - size_at t !j
        done
      end
    end
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
