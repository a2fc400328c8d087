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

module Stack = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 64 0; n = 0 }

  let push s v =
    if s.n = Array.length s.a then begin
      let a = Array.make (2 * s.n) 0 in
      Array.blit s.a 0 a 0 s.n;
      s.a <- a
    end;
    Array.unsafe_set s.a s.n v;
    s.n <- s.n + 1

  let pop s =
    s.n <- s.n - 1;
    Array.unsafe_get s.a s.n

  let top s = Array.unsafe_get s.a (s.n - 1)
  let is_empty s = s.n = 0
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
   yet claimed by a parent, its first event and its depth. *)
let depth t =
  let st = Stack.create () in
  for i = first t to t.root do
    if tag_at t i = tag_leaf then begin
      Stack.push st i;
      Stack.push st 1
    end
    else begin
      let lo = i - size_at t i + 1 in
      let d = ref 0 in
      while (not (Stack.is_empty st)) && st.a.(st.n - 2) >= lo do
        let dk = Stack.pop st in
        ignore (Stack.pop st);
        if dk > !d then d := dk
      done;
      Stack.push st lo;
      Stack.push st (!d + 1)
    end
  done;
  Stack.top st

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

let label g t i =
  match tag_at t i with
  | 1 -> Grammar.nonterminal_name g (payload_at t i)
  | _ -> (
    match symbol_at t i with
    | None -> "ERROR"
    | Some s -> "ERROR:" ^ Grammar.symbol_name g s)

(* The layout of ["@[<hov 1>(%s%a)@]"] with a ["@ "] before every child,
   written with the Format primitives that format string expands to, so
   no format string is interpreted per node (test/render pins the bytes).
   Stack codes: [2j] visits event [j], [2j + 1] visits it after a space,
   [close] ends the innermost open node. *)
let pp g ppf t =
  let st = Stack.create () in
  Stack.push st (2 * t.root);
  while not (Stack.is_empty st) do
    let c = Stack.pop st in
    if c = close then begin
      Format.pp_print_string ppf ")";
      Format.pp_close_box ppf ()
    end
    else begin
      let i = c lsr 1 in
      if c land 1 = 1 then Format.pp_print_space ppf ();
      if tag_at t i = tag_leaf then begin
        Format.pp_print_string ppf "'";
        Format.pp_print_string ppf (Word.lexeme t.word (payload_at t i));
        Format.pp_print_string ppf "'"
      end
      else begin
        Format.pp_open_hovbox ppf 1;
        Format.pp_print_string ppf "(";
        Format.pp_print_string ppf (label g t i);
        Stack.push st close;
        push_children st t i (fun j -> (2 * j) + 1)
      end
    end
  done

let to_string g v = Fmt.str "%a" (pp g) v

(* Node ids are preorder numbers from 1, so a child's id is its parent's
   plus one plus the events of its earlier siblings.  Stack entries are
   pairs: [(j, id)] visits event [j] as node [id]; [(-1 - parent, kid)]
   prints the edge once the kid's subtree is done. *)
let to_dot g t =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "digraph parse_tree {\n  node [shape=box];\n";
  let escape s = String.concat "\\\"" (String.split_on_char '"' s) in
  let st = Stack.create () in
  Stack.push st t.root;
  Stack.push st 1;
  while not (Stack.is_empty st) do
    let id = Stack.pop st in
    let c = Stack.pop st in
    if c < 0 then
      Buffer.add_string buf (Printf.sprintf "  n%d -> n%d;\n" (-1 - c) id)
    else if tag_at t c = tag_leaf then
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=ellipse];\n" id
           (escape (Word.lexeme t.word (payload_at t c))))
    else begin
      (match tag_at t c with
      | 1 ->
        Buffer.add_string buf
          (Printf.sprintf "  n%d [label=\"%s\"];\n" id
             (escape (Grammar.nonterminal_name g (payload_at t c))))
      | _ ->
        let label =
          match symbol_at t c with
          | None -> "ERROR"
          | Some s -> "ERROR: " ^ Grammar.symbol_name g s
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  n%d [label=\"%s\", shape=diamond, color=red];\n" id
             (escape label)));
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
  done;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
