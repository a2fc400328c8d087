(** Graphviz DOT: grammar, lexer, and corpus generator.

    The grammar follows the official DOT language specification (as used in
    the ANTLR evaluation the paper reuses data from).  The [stmt] rule is a
    good ALL(star) stressor: a node statement, an edge statement, and an
    attribute assignment all begin with an [id], and edge statements that
    begin with a subgraph require prediction to scan through the entire
    bracketed block before seeing the edge operator. *)

open Costar_lex

let grammar_src =
  {|
    graph     : 'strict'? ('graph' | 'digraph') id2? '{' stmt_list '}' ;
    stmt_list : (stmt ';'?)* ;
    stmt      : node_stmt
              | edge_stmt
              | attr_stmt
              | id2 '=' id2
              | subgraph ;
    attr_stmt : ('graph' | 'node' | 'edge') attr_list ;
    attr_list : ('[' a_list? ']')+ ;
    a_list    : (id2 ('=' id2)? ','?)+ ;
    edge_stmt : (node_id | subgraph) edge_rhs attr_list? ;
    edge_rhs  : (edgeop (node_id | subgraph))+ ;
    edgeop    : '->' | '--' ;
    node_stmt : node_id attr_list? ;
    node_id   : id2 port? ;
    port      : ':' id2 (':' id2)? ;
    subgraph  : ('subgraph' id2?)? '{' stmt_list '}' ;
    id2       : ID | STRING | NUMBER ;
  |}

let grammar =
  lazy
    (match Costar_ebnf.Parse.grammar_of_string ~start:"graph" grammar_src with
    | Ok g -> g
    | Error msg -> failwith ("Dot.grammar: " ^ msg))

let scanner =
  lazy
    (let open Regex in
     Scanner.make
       [
         Scanner.rule "strict" (str "strict");
         Scanner.rule "graph" (str "graph");
         Scanner.rule "digraph" (str "digraph");
         Scanner.rule "node" (str "node");
         Scanner.rule "edge" (str "edge");
         Scanner.rule "subgraph" (str "subgraph");
         Scanner.rule "->" (str "->");
         Scanner.rule "--" (str "--");
         Scanner.rule "{" (chr '{');
         Scanner.rule "}" (chr '}');
         Scanner.rule "[" (chr '[');
         Scanner.rule "]" (chr ']');
         Scanner.rule ";" (chr ';');
         Scanner.rule "," (chr ',');
         Scanner.rule "=" (chr '=');
         Scanner.rule ":" (chr ':');
         Scanner.rule "ID" (seq [ alt [ letter; chr '_' ]; star word_char ]);
         Scanner.rule "NUMBER"
           (seq [ opt (chr '-'); plus digit; opt (seq [ chr '.'; plus digit ]) ]);
         Scanner.rule "STRING" (seq [ chr '"'; star (none_of "\""); chr '"' ]);
         Scanner.rule "COMMENT" ~skip:true
           (seq [ str "//"; star (none_of "\n") ]);
         Scanner.rule "WS" ~skip:true (plus (set " \t\r\n"));
       ])

(* --- Generator --------------------------------------------------------- *)

let gen_attr_list st =
  Gen_util.add st " [";
  let n = 1 + Gen_util.int st 3 in
  for i = 1 to n do
    if i > 1 then Gen_util.add st ", ";
    Gen_util.addf st "%s=\"%s\"" (Gen_util.pick st [| "color"; "label"; "shape"; "weight" |]) (Gen_util.word st)
  done;
  Gen_util.add st "]"

let gen_node_id st n_nodes =
  Gen_util.addf st "n%d" (Gen_util.int st n_nodes);
  if Gen_util.chance st 0.1 then
    Gen_util.addf st ":%s" (Gen_util.pick st [| "n"; "s"; "e"; "w" |])

let rec gen_stmt st n_nodes depth =
  (* Statement-initial subgraphs force the parser to scan the whole block
     to distinguish a subgraph statement from a subgraph-led edge, so keep
     them rare, as in real-world DOT files. *)
  match Gen_util.int st 20 with
  | 0 | 1 | 2 | 10 | 11 | 12 | 13 ->
    (* node statement *)
    Gen_util.add st "  ";
    gen_node_id st n_nodes;
    if Gen_util.chance st 0.5 then gen_attr_list st;
    Gen_util.add st ";\n"
  | 3 | 4 | 5 | 6 | 14 | 15 | 16 | 17 | 18 ->
    (* edge chain *)
    Gen_util.add st "  ";
    gen_node_id st n_nodes;
    let hops = 1 + Gen_util.int st 3 in
    for _ = 1 to hops do
      Gen_util.add st " -> ";
      gen_node_id st n_nodes
    done;
    if Gen_util.chance st 0.3 then gen_attr_list st;
    Gen_util.add st ";\n"
  | 7 | 9 ->
    (* graph attribute *)
    Gen_util.addf st "  %s" (Gen_util.pick st [| "graph"; "node"; "edge" |]);
    gen_attr_list st;
    Gen_util.add st ";\n"
  | 8 -> Gen_util.addf st "  %s=\"%s\";\n" (Gen_util.word st) (Gen_util.word st)
  | _ ->
    if depth < 2 then begin
      Gen_util.addf st "  subgraph cluster_%s {\n" (Gen_util.word st);
      let n = 1 + Gen_util.int st 4 in
      for _ = 1 to n do
        gen_stmt st n_nodes (depth + 1)
      done;
      Gen_util.add st "  }\n"
    end
    else begin
      Gen_util.add st "  ";
      gen_node_id st n_nodes;
      Gen_util.add st ";\n"
    end

let generate ~seed ~size =
  let st = Gen_util.create ~seed ~size in
  let n_nodes = max 4 (size / 4) in
  Gen_util.add st "digraph generated {\n";
  while not (Gen_util.exhausted st) do
    gen_stmt st n_nodes 0
  done;
  Gen_util.add st "}\n";
  Gen_util.contents st

let lang = Lang.make ~name:"dot" ~grammar ~scanner ~generate ()
