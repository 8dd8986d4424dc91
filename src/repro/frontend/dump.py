"""Clang-style AST dumping (paper Listing 5).

``dump_ast`` renders the tree with the familiar ``|-``/`` `-`` rails so
the examples and docs can show output comparable to
``clang -Xclang -ast-dump -fsyntax-only file.c``.
"""

from __future__ import annotations

from io import StringIO

from . import ast_nodes as A


def _node_summary(node: A.Node) -> str:
    parts: list[str] = [node.class_name]
    if node.buffer is not None:
        line, col = node.buffer.line_col(node.begin_offset)
        parts.append(f"<line:{line}, col:{col}>")
    if isinstance(node, A.FunctionDecl):
        parts.append(f"{node.name} '{node.return_type}'")
        if not node.is_definition:
            parts.append("prototype")
    elif isinstance(node, A.ParmVarDecl):
        parts.append(f"used {node.name} '{node.qual_type}'")
    elif isinstance(node, A.VarDecl):
        parts.append(f"used {node.name} '{node.qual_type}'")
        if node.init is not None:
            parts.append("cinit")
    elif isinstance(node, A.FieldDecl):
        parts.append(f"{node.name} '{node.qual_type}'")
    elif isinstance(node, A.TypedefDecl):
        parts.append(f"{node.name} '{node.qual_type}'")
    elif isinstance(node, A.RecordDecl):
        parts.append(f"struct {node.tag}" if node.tag else "struct")
    elif isinstance(node, A.IntegerLiteral):
        parts.append(f"'{node.qual_type or 'int'}' {node.value}")
    elif isinstance(node, A.FloatingLiteral):
        parts.append(f"'{node.qual_type or 'double'}' {node.value}")
    elif isinstance(node, A.CharacterLiteral):
        parts.append(f"'int' {node.value}")
    elif isinstance(node, A.StringLiteral):
        parts.append(repr(node.value))
    elif isinstance(node, A.DeclRefExpr):
        parts.append(f"'{node.name}' '{node.qual_type or '?'}'")
    elif isinstance(node, A.BinaryOperator):
        ty = node.qual_type or "?"
        lvalue = "lvalue " if node.is_assignment else ""
        parts.append(f"'{ty}' {lvalue}'{node.op}'")
    elif isinstance(node, A.UnaryOperator):
        fix = "prefix" if node.is_prefix else "postfix"
        parts.append(f"'{node.qual_type or '?'}' {fix} '{node.op}'")
    elif isinstance(node, A.MemberExpr):
        arrow = "->" if node.is_arrow else "."
        parts.append(f"'{node.qual_type or '?'}' {arrow}{node.member}")
    elif isinstance(node, A.CStyleCastExpr):
        parts.append(f"'{node.target_type}'")
    elif isinstance(node, A.OMPExecutableDirective):
        parts.append(f"'{node.directive_kind}'")
    elif isinstance(node, A.OMPMapClause):
        parts.append(f"map({node.map_type}: {', '.join(node.var_names())})")
    elif isinstance(node, A.OMPVarListClause):
        parts.append(f"{node.kind}({', '.join(node.var_names())})")
    elif isinstance(node, A.OMPSectionItem):
        parts.append(node.name)
    elif isinstance(node, A.OMPClause):
        parts.append(node.kind)
    return " ".join(parts)


def _dump(node: A.Node, out: StringIO, prefix: str, is_last: bool, is_root: bool) -> None:
    if is_root:
        out.write(_node_summary(node) + "\n")
        child_prefix = ""
    else:
        rail = "`-" if is_last else "|-"
        out.write(prefix + rail + _node_summary(node) + "\n")
        child_prefix = prefix + ("  " if is_last else "| ")
    kids = node.children()
    for i, child in enumerate(kids):
        _dump(child, out, child_prefix, i == len(kids) - 1, False)


def dump_ast(node: A.Node) -> str:
    """Render ``node``'s subtree in Clang ``-ast-dump`` style."""
    out = StringIO()
    _dump(node, out, "", True, True)
    return out.getvalue()
