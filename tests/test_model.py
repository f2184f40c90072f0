"""Behavior and application XML parsing, serialization, validation."""

import copy
import inspect
import pickle
import tracemalloc
from xml.etree import ElementTree

import pytest
from hypothesis import assume, given, settings
import hypothesis.strategies as st

from conftest import (
    MALFORMED_MODELS,
    MISMATCHED_ONE,
    MISMATCHED_SECOND,
    behavior_models,
    deep_hierarchy_texts,
)
import portarb.model
from portarb import (
    ACCEPT,
    NO_RULE,
    SELECTED,
    And,
    BehaviorModel,
    BehaviorNode,
    Component,
    Connection,
    Decision,
    Diagnostic,
    Lit,
    NetworkDescription,
    Not,
    Or,
    ParseError,
    PeriodicSource,
    apply_auto_observe,
    check_port,
    fixture,
    normalize,
    parse_behavior_model,
    parse_network,
    render_condition,
    validate,
)
from portarb.model import (
    BEHAVIOR,
    ERROR,
    FALSE,
    MAX_EXPANSION_CHARS,
    MAX_V3_PER_PORT,
    META_BEHAVIOR,
    TRUE,
    WARNING,
    TrueExpr,
    Value,
    is_input,
    is_output,
)


LISTING = fixture("be-curious").model.read_text()
FIG3_MODEL = fixture("search-and-track").model.read_text()
FIG2_NETWORK = fixture("search-and-track").network.read_text()


def _node(model, name):
    return next(node for node in model.walk() if node.name == name)


# Writers of both XML formats for the round-trip tests; parse_behavior_model
# and parse_network invert them
def _esc(text: str) -> str:
    # xml.sax.saxutils.escape(text, {'"': "&quot;"}), written out so that
    # test_serialize_escapes_like_saxutils compares two implementations
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;")


def serialize_behavior_model(model: BehaviorModel) -> str:
    """Render a model back to XML; parse_behavior_model inverts this."""
    chunks: list[str] = []
    for node in model.walk():
        lines = [f'<{node.kind} name="{_esc(node.name)}">']
        if node.is_meta:
            for child in node.children:
                lines.append(f"   <behavior>{_esc(child.name)}</behavior>")
        else:
            for conn in node.configuration:
                lines.append(
                    f'   <config at="{_esc(conn.destination)}">{_esc(conn.source)}</config>'
                )
        rendered = "" if node.condition == TRUE else _esc(render_condition(node.condition))
        lines.append(f"   <condition>{rendered}</condition>")
        if node.inhibitions:
            for target in node.inhibitions:
                lines.append(f"   <inhibition>{_esc(target)}</inhibition>")
        else:
            lines.append("   <inhibition></inhibition>")
        lines.append(f"</{node.kind}>")
        chunks.append("\n".join(lines))
    return "\n\n".join(chunks) + "\n"


def serialize_network(network: NetworkDescription) -> str:
    lines = ["<application>"]
    for component in network.components:
        lines.append(f'   <module name="{_esc(component.name)}">')
        for port in component.inputs:
            lines.append(f"      <input>{_esc(port)}</input>")
        for port in component.outputs:
            lines.append(f"      <output>{_esc(port)}</output>")
        lines.append("   </module>")
    for conn in network.connections:
        window = network.windows.get(conn.destination)
        attr = f' window="{window}"' if window is not None else ""
        lines.append(
            f'   <connection from="{_esc(conn.source)}" to="{_esc(conn.destination)}"{attr}/>'
        )
    lines.append("</application>")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("port", ["/Gaze/pos:i", "/collision:o", "/a/b/c/d:o", "/RestArm/pos:o"])
def test_valid_port_names(port):
    assert check_port(port) == port


@pytest.mark.parametrize("port", [
    "", "/", "Gaze/pos:i", "/Gaze/pos", "/Gaze/pos:x", "/:o", "//x:o",
    "/a b:o", "/a:o/b:o", ":i",
    # `$` also matches before a final newline
    "/a/b:o\n", "/Gaze/pos:i\n",
])
def test_invalid_port_names(port):
    with pytest.raises(ParseError):
        check_port(port)


def test_port_direction_helpers():
    assert is_output("/a:o") and not is_input("/a:o")
    assert is_input("/a:i") and not is_output("/a:i")


def test_connection_direction_enforced():
    with pytest.raises(ParseError, match="output"):
        Connection("/a:i", "/b:i")
    with pytest.raises(ParseError, match="input"):
        Connection("/a:o", "/b:o")


@pytest.mark.parametrize("source, destination", [("/a:o\n", "/b:i"), ("/a:o", "/b:i\n")])
def test_connection_rejects_a_trailing_newline(source, destination):
    with pytest.raises(ParseError, match="invalid port name"):
        Connection(source, destination)


# -- behavior XML -----------------------------------------------------------


def test_listing_parses_to_expected_structure():
    model = parse_behavior_model(LISTING)
    assert [n.name for n in model.roots] == ["Be Curious"]
    curious = model.roots[0]
    assert curious.is_meta
    assert [c.name for c in curious.children] == ["Look Around", "Follow Face"]
    look = _node(model, "Look Around")
    assert look.configuration == (Connection("/RandomLook/pos:o", "/Gaze/pos:i"),)
    assert look.condition == TRUE and look.inhibitions == ()
    follow = _node(model, "Follow Face")
    assert follow.configuration == (Connection("/Face/pos:o", "/Gaze/pos:i"),)
    assert follow.inhibitions == ("Look Around",)


def test_minimal_document():
    model = parse_behavior_model('<behavior name="B"><config at="/X:i">/Y:o</config></behavior>')
    assert len(model.roots) == 1
    node = model.roots[0]
    assert node.name == "B" and not node.is_meta
    assert node.configuration == (Connection("/Y:o", "/X:i"),)
    assert node.condition == TRUE
    assert node.inhibitions == ()


def test_missing_define_is_a_parse_error():
    broken = LISTING.replace('<define name="gaze"> /Gaze/pos:i </define>', "")
    with pytest.raises(ParseError, match=r"unresolved \$\{gaze\}"):
        parse_behavior_model(broken)


def _model_with_defines(values, condition):
    """A model whose defines a and b hold `values` and whose one leaf's
    condition is `condition`, on a line of its own."""
    from xml.sax.saxutils import escape

    defines = "".join(
        f'<define name="{name}">{escape(value)}</define>\n' for name, value in zip("ab", values))
    return (f'<model>\n{defines}<behavior name="B"><config at="/X:i">/Y:o</config>\n'
            f"<condition>{condition}</condition></behavior>\n</model>")


def test_define_that_breaks_the_xml_is_named_at_its_reference():
    # was reported at its line and column in the substituted text, as if
    # the user's XML were malformed
    text = _model_with_defines(["<bad"], "/Y:o and ${a}")
    with pytest.raises(ParseError) as caught:
        parse_behavior_model(text)
    assert str(caught.value) == (
        "malformed behavior model XML: define 'a', substituted for ${a} at line 4, "
        "column 20: not well-formed (invalid token)")
    # an unclosed element breaks the XML only at a later end tag, past the
    # next reference
    text = _model_with_defines(["<b>", "/Y:o"], "${a} and ${b}")
    with pytest.raises(ParseError) as caught:
        parse_behavior_model(text)
    assert str(caught.value) == (
        "malformed behavior model XML: define 'a', substituted for ${a} at line 5, "
        "column 11: mismatched tag")


@settings(max_examples=150, deadline=None)
@given(st.lists(st.text(alphabet="ab/:<>&;#x \n", max_size=8), min_size=2, max_size=2),
       st.sampled_from(["${a} or ${b}", "${a}${b}", "not ${b} ${a}"]))
def test_define_errors_give_the_reference_in_the_users_file(values, condition):
    # defines holding <, & and newlines, referenced twice on one line: the
    # error names the first reference whose substitution stops the document
    # parsing, at its place in the text as written
    import pyexpat

    text = _model_with_defines(values, condition)
    refs = sorted((condition.index(f"${{{name}}}"), name) for name in "ab")
    done, culprit = text, None
    for _, name in refs:
        value = values["ab".index(name)].strip()
        done = done.replace(f"${{{name}}}", value, 1)
        try:
            ElementTree.fromstring(done)
        except ElementTree.ParseError:
            culprit = name
            break
    assume(culprit is not None)
    with pytest.raises(ParseError) as caught:
        parse_behavior_model(text)
    at = text.index(f"${{{culprit}}}")
    line = text.count("\n", 0, at) + 1
    column = at - text.rfind("\n", 0, at) - 1
    head = (f"malformed behavior model XML: define {culprit!r}, substituted for "
            f"${{{culprit}}} at line {line}, column {column}: ")
    message = str(caught.value)
    assert message.startswith(head)
    assert message[len(head):] in pyexpat.errors.messages.values()


def test_define_chains_resolve():
    text = """
    <define name="base">/Gaze</define>
    <define name="gaze">${base}/pos:i</define>
    <behavior name="B"><config at="${gaze}">/Y:o</config></behavior>
    """
    model = parse_behavior_model(f"<behaviors>{text}</behaviors>")
    assert model.roots[0].configuration == (Connection("/Y:o", "/Gaze/pos:i"),)


def test_model_xml_is_parsed_again_only_when_defines_change_it(monkeypatch):
    parses = []
    fromstring = ElementTree.fromstring
    monkeypatch.setattr(ElementTree, "fromstring", lambda text: parses.append(text) or fromstring(text))
    plain = '<behaviors><behavior name="B"><config at="/X:i">/Y:o</config></behavior></behaviors>'
    assert parse_behavior_model(plain).roots[0].configuration == (Connection("/Y:o", "/X:i"),)
    assert parses == [plain]
    parses.clear()
    substituted = ('<behaviors><define name="x">/X:i</define>'
                   '<behavior name="B"><config at="${x}">/Y:o</config></behavior></behaviors>')
    assert parse_behavior_model(substituted).roots[0].configuration == (Connection("/Y:o", "/X:i"),)
    assert parses == [substituted, substituted.replace("${x}", "/X:i")]


def test_circular_defines_rejected():
    text = """
    <define name="a">${b}</define>
    <define name="b">${a}</define>
    <behavior name="B"><config at="${a}">/Y:o</config></behavior>
    """
    with pytest.raises(ParseError, match="circular"):
        parse_behavior_model(f"<behaviors>{text}</behaviors>")


def test_doubling_defines_are_rejected_before_expanding():
    # each define holds its predecessor twice, so the last would need
    # 64 * 2**depth characters, four times the cap
    depth = (MAX_EXPANSION_CHARS // 64).bit_length() + 1
    chain = ['<define name="d0">' + "x" * 64 + "</define>"] + [
        f'<define name="d{k}">${{d{k - 1}}}${{d{k - 1}}}</define>' for k in range(1, depth + 1)
    ]
    text = "".join(chain) + '<behavior name="B"><config at="/X:i">/Y:o</config></behavior>'
    tracemalloc.start()
    try:
        with pytest.raises(ParseError, match="expand by more than"):
            parse_behavior_model(f"<behaviors>{text}</behaviors>")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * MAX_EXPANSION_CHARS


def test_duplicate_names_rejected():
    text = (
        '<behavior name="B"><config at="/X:i">/Y:o</config></behavior>'
        '<behavior name="B"><config at="/X:i">/Z:o</config></behavior>'
    )
    with pytest.raises(ParseError, match="duplicate behavior name"):
        parse_behavior_model(text)


def test_unknown_reference_rejected():
    text = '<meta_behavior name="M"><behavior>Ghost</behavior></meta_behavior>'
    with pytest.raises(ParseError, match="unknown behavior reference"):
        parse_behavior_model(text)


def test_doubly_referenced_child_rejected():
    text = (
        '<behavior name="B"><config at="/X:i">/Y:o</config></behavior>'
        '<meta_behavior name="M1"><behavior>B</behavior></meta_behavior>'
        '<meta_behavior name="M2"><behavior>B</behavior></meta_behavior>'
    )
    with pytest.raises(ParseError, match="referenced by both"):
        parse_behavior_model(text)


def test_circular_containment_rejected():
    text = (
        '<behavior name="B"><config at="/X:i">/Y:o</config></behavior>'
        '<meta_behavior name="M1"><behavior>M2</behavior><behavior>B</behavior></meta_behavior>'
        '<meta_behavior name="M2"><behavior>M1</behavior></meta_behavior>'
    )
    with pytest.raises(ParseError, match="circular containment|cannot contain itself"):
        parse_behavior_model(text)


def test_meta_with_config_rejected():
    text = '<meta_behavior name="M"><config at="/X:i">/Y:o</config></meta_behavior>'
    with pytest.raises(ParseError, match="unexpected <config>"):
        parse_behavior_model(text)


def test_behavior_without_config_rejected():
    with pytest.raises(ParseError, match="at least one connection"):
        parse_behavior_model('<behavior name="B"><condition></condition></behavior>')


def test_comma_separated_inhibition_list():
    model = parse_behavior_model(FIG3_MODEL)
    assert _node(model, "Track Object").inhibitions == ("Rest Arm", "Be Curious")


def test_repeated_inhibition_elements():
    text = (
        '<behaviors>'
        '<behavior name="A"><config at="/X:i">/Y:o</config></behavior>'
        '<behavior name="B"><config at="/X:i">/Z:o</config>'
        "<inhibition>A</inhibition><inhibition>A</inhibition></behavior>"
        "</behaviors>"
    )
    assert _node(parse_behavior_model(text), "B").inhibitions == ("A",)


def test_multiple_condition_elements_rejected():
    text = (
        '<behavior name="B"><config at="/X:i">/Y:o</config>'
        "<condition>/a:o</condition><condition>/b:o</condition></behavior>"
    )
    with pytest.raises(ParseError, match="multiple <condition>"):
        parse_behavior_model(text)


@pytest.mark.parametrize("text, message", [
    ("<define>x</define>", "<define> requires a name attribute"),
    ('<define name="d">x</define><define name="d">y</define>', "duplicate <define name='d'>"),
    ('<behavior name="B"><config>/Y:o</config></behavior>',
     "<config> in 'B' requires an at attribute"),
    ('<behavior name="B"><config at="/X:i"> </config></behavior>',
     "<config> in 'B' requires a source port"),
    ('<behavior name="B"><config at="/X:i">/Y:o</config><config at="/X:i">/Y:o</config>'
     "</behavior>", "duplicate configuration /Y:o -> /X:i in 'B'"),
    ('<meta_behavior name="M"><behavior name="B"><config at="/X:i">/Y:o</config></behavior>'
     "</meta_behavior>",
     "inline definitions are not allowed inside 'M'; reference behaviors by name"),
    ('<meta_behavior name="M"><behavior> </behavior></meta_behavior>',
     "empty behavior reference in 'M'"),
    ('<meta_behavior name="M"><behavior/></meta_behavior>', "empty behavior reference in 'M'"),
    ('<meta_behavior name="M"></meta_behavior>',
     "meta_behavior 'M' must reference at least one behavior"),
    ('<behaviors><module name="A"/></behaviors>', "unexpected top-level element <module>"),
    ('<behavior><config at="/X:i">/Y:o</config></behavior>',
     "<behavior> requires a non-empty name attribute"),
    ('<meta_behavior name=" "><behavior>B</behavior></meta_behavior>',
     "<meta_behavior> requires a non-empty name attribute"),
    ('<behavior name="A,B"><config at="/X:i">/Y:o</config></behavior>',
     "behavior name 'A,B' must not contain commas"),
    ('<meta_behavior name="M"><behavior>M</behavior></meta_behavior>', "'M' cannot contain itself"),
    ('<behavior name="B"><config at="/X:i">/Y:o</config><condition>/a:o # /b:o</condition>'
     "</behavior>", "condition of 'B': condition syntax error at position 5: unexpected '#'"),
])
def test_behavior_model_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_behavior_model(text)
    assert str(info.value) == message


def test_malformed_xml_rejected():
    with pytest.raises(ParseError, match="malformed"):
        parse_behavior_model("<behavior name='B'>")


LEAF_B = '<behavior name="B"><config at="/X:i">/Y:o</config></behavior>'


@pytest.mark.parametrize("text, roots", [
    (LEAF_B, 1),
    (f'<define name="d">x</define>{LEAF_B}', 1),  # several top-level elements
    (f'<?xml version="1.0"?>\n<define name="d">x</define>\n{LEAF_B}', 1),
    ("", 0),
    ("<!-- nothing here -->", 0),
    (f"some text {LEAF_B}", 1),
])
def test_model_documents_of_any_number_of_top_level_elements_parse(text, roots):
    assert len(parse_behavior_model(text).roots) == roots


@pytest.mark.parametrize("text, message", MALFORMED_MODELS)
def test_malformed_model_xml_errors_name_the_place_in_the_document(text, message):
    for mismatched in (MISMATCHED_ONE, MISMATCHED_SECOND):
        index = text.rfind(mismatched)
        if index >= 0:  # the column expat gives for the text on its own line
            line_start = text.rfind("\n", 0, index) + 1
            assert message.endswith(
                f"column {index - line_start + mismatched.index('</behaviour>') + 2}")
    with pytest.raises(ParseError) as caught:
        parse_behavior_model(text)
    assert str(caught.value).startswith(f"malformed behavior model XML: {message}")


def test_serialize_roundtrip_listing():
    model = parse_behavior_model(LISTING)
    assert parse_behavior_model(serialize_behavior_model(model)) == model


def test_serialize_roundtrip_search_and_track():
    model = parse_behavior_model(FIG3_MODEL)
    assert parse_behavior_model(serialize_behavior_model(model)) == model


def test_serialize_escapes_like_saxutils():
    from xml.sax.saxutils import escape

    value, name = 'a & b < c > "d"', 'B & <x> "y"'
    model = parse_behavior_model(
        '<behaviors><behavior name=\'B &amp; &lt;x&gt; "y"\'><config at="/X:i">/Y:o</config>'
        '<inhibition>a &amp; b &lt; c &gt; "d"</inhibition></behavior></behaviors>'
    )
    assert model.roots[0].inhibitions == (value,) and model.roots[0].name == name
    text = serialize_behavior_model(model)
    assert f'<inhibition>{escape(value, {chr(34): "&quot;"})}</inhibition>' in text
    assert f'<behavior name="{escape(name, {chr(34): "&quot;"})}">' in text
    assert parse_behavior_model(text) == model


@settings(max_examples=50)
@given(behavior_models())
def test_serialize_roundtrip_random_models(model):
    assert parse_behavior_model(serialize_behavior_model(model)) == model


# -- application XML --------------------------------------------------------


def test_network_parses_components_and_connections():
    network = parse_network(FIG2_NETWORK)
    assert len(network.components) == 7
    assert len(network.connections) == 6
    assert Connection("/Object/pos:o", "/Gaze/pos:i") in network.connections
    assert Connection("/collision:o", "/Arm/pos:i") in network.connections
    assert network.windows == {}


def test_empty_application():
    network = parse_network("<application/>")
    assert network.components == () and network.connections == ()


def test_connection_to_undeclared_port_rejected():
    text = (
        '<application><module name="A"><output>/a:o</output></module>'
        '<connection from="/a:o" to="/ghost:i"/></application>'
    )
    with pytest.raises(ParseError, match="/ghost:i"):
        parse_network(text)


def test_duplicate_connection_rejected():
    text = (
        '<application><module name="A"><output>/a:o</output></module>'
        '<module name="B"><input>/b:i</input></module>'
        '<connection from="/a:o" to="/b:i"/><connection from="/a:o" to="/b:i"/></application>'
    )
    with pytest.raises(ParseError, match="duplicate connection"):
        parse_network(text)


def test_window_override():
    text = (
        '<application><module name="A"><output>/a:o</output></module>'
        '<module name="B"><input>/b:i</input></module>'
        '<connection from="/a:o" to="/b:i" window="250"/></application>'
    )
    assert parse_network(text).windows == {"/b:i": 250}


# int() read "1_000", " 7 ", "+5" and "\u0663" (a 3 ms window) as integers
@pytest.mark.parametrize("window", ["0", "-5", "abc", "1_000", " 7 ", "+5", "\u0663", ""])
def test_bad_window_rejected(window):
    text = (
        '<application><module name="A"><output>/a:o</output></module>'
        '<module name="B"><input>/b:i</input></module>'
        f'<connection from="/a:o" to="/b:i" window="{window}"/></application>'
    )
    with pytest.raises(ParseError) as info:
        parse_network(text)
    assert str(info.value) == (
        "window override for '/b:i' must be a positive integer" if window in ("0", "-5")
        else f"window={window!r} is not an integer")


A_TO_B = '<module name="A"><output>/a:o</output></module><module name="B"><input>/b:i</input></module>'


@pytest.mark.parametrize("text, message", [
    ("<app/>", "expected <application> root element, got <app>"),
    ("<application><module><output>/a:o</output></module></application>",
     "<module> requires a non-empty name attribute"),
    ('<application><module name=" "/></application>', "<module> requires a non-empty name attribute"),
    ('<application><module name="A"><input>/a:o</input></module></application>',
     "port '/a:o' declared as input must end with :i"),
    ('<application><module name="A"><output>/a:i</output></module></application>',
     "port '/a:i' declared as output must end with :o"),
    ('<application><module name="A"><port>/a:o</port></module></application>',
     "unexpected <port> inside <module 'A'>"),
    ("<application><wire/></application>", "unexpected <wire> inside <application>"),
    (f'<application>{A_TO_B}<connection to="/b:i"/></application>',
     "<connection> requires from and to attributes"),
    (f'<application>{A_TO_B}<connection from="/a:o" to=" "/></application>',
     "<connection> requires from and to attributes"),
    (f'<application>{A_TO_B}<connection from="/ghost:o" to="/b:i"/></application>',
     "connection references undeclared output port '/ghost:o'"),
    (f'<application>{A_TO_B}<module name="C"><output>/c:o</output></module>'
     '<connection from="/a:o" to="/b:i" window="100"/>'
     '<connection from="/c:o" to="/b:i" window="200"/></application>',
     "conflicting window overrides for '/b:i'"),
])
def test_network_parse_errors(text, message):
    with pytest.raises(ParseError) as info:
        parse_network(text)
    assert str(info.value) == message


def test_window_override_for_an_undeclared_input_rejected():
    # parse_network reports the connection first; a direct construction
    # reaches the window check
    with pytest.raises(ParseError) as info:
        NetworkDescription((Component("A", ("/a:i",), ()),), (), {"/ghost:i": 5})
    assert str(info.value) == "window override for undeclared input port '/ghost:i'"


def test_duplicate_port_declaration_rejected():
    text = (
        '<application><module name="A"><output>/a:o</output></module>'
        '<module name="B"><output>/a:o</output></module></application>'
    )
    with pytest.raises(ParseError, match="declared more than once"):
        parse_network(text)


def test_network_serialize_roundtrip():
    network = parse_network(FIG2_NETWORK)
    assert parse_network(serialize_network(network)) == network


# -- validation -------------------------------------------------------------


def _fig3():
    return parse_behavior_model(FIG3_MODEL), parse_network(FIG2_NETWORK)


def test_cross_group_inhibition_is_v1():
    # Follow Face may not inhibit Rest Arm: different parents
    model_text = FIG3_MODEL.replace(
        "<inhibition>Look Around</inhibition>",
        "<inhibition>Look Around</inhibition>\n   <inhibition>Rest Arm</inhibition>",
    )
    model = parse_behavior_model(model_text)
    network = parse_network(FIG2_NETWORK)
    v1 = [d for d in validate(model, network) if d.code == "V1"]
    assert len(v1) == 1
    assert v1[0].severity == ERROR and v1[0].location == "Follow Face"


def test_missing_configured_connection_is_v2():
    model, _ = _fig3()
    network = parse_network(FIG2_NETWORK.replace(
        '   <connection from="/RestArm/pos:o" to="/Arm/pos:i"/>\n', ""
    ))
    v2 = [d for d in validate(model, network) if d.code == "V2"]
    assert len(v2) == 1 and v2[0].location == "Rest Arm"


def test_unobservable_condition_literal_is_v3():
    model, network = _fig3()
    diagnostics = validate(model, network)
    assert [d.code for d in diagnostics] == ["V3"]
    assert diagnostics[0].severity == ERROR
    assert "/collision:o" in diagnostics[0].message
    assert "/Gaze/pos:i" in diagnostics[0].message


def test_auto_observe_downgrades_v3_to_warning_and_adds_connection():
    model, network = _fig3()
    diagnostics = validate(model, network, auto_observe=True)
    assert [d.severity for d in diagnostics] == [WARNING]
    augmented = apply_auto_observe(model, network)
    added = augmented.connections[len(network.connections):]
    assert added == (Connection("/collision:o", "/Gaze/pos:i"),)
    assert validate(model, augmented) == []


def test_undeclared_literal_port_is_v3_even_with_auto_observe():
    model, _ = _fig3()
    network = parse_network(FIG2_NETWORK.replace(
        '   <module name="Collision Detector">\n      <output>/collision:o</output>\n   </module>\n',
        "",
    ).replace('   <connection from="/collision:o" to="/Arm/pos:i"/>\n', ""))
    diagnostics = validate(model, network, auto_observe=True)
    assert any(d.code == "V3" and d.severity == ERROR for d in diagnostics)


def test_auto_observe_at_256_leaves_equals_the_checked_network(monkeypatch):
    model_text, network_text = deep_hierarchy_texts()
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    checks = []
    check_port = portarb.model.check_port
    monkeypatch.setattr(portarb.model, "check_port", lambda name: checks.append(name) or check_port(name))
    augmented = apply_auto_observe(model, network)
    assert checks == []
    added = augmented.connections[len(network.connections):]
    assert augmented.connections[:len(network.connections)] == network.connections
    checked = NetworkDescription(
        network.components,
        network.connections + tuple(Connection(c.source, c.destination) for c in added),
        dict(network.windows),
    )
    assert len(checks) == 2 * len(added) > 20_000  # the public path checks both ports
    assert augmented == checked
    assert augmented.declared_inputs == checked.declared_inputs
    assert augmented.declared_outputs == checked.declared_outputs
    assert augmented.windows == checked.windows == network.windows
    assert len(network.windows) == 64
    for port in checked.declared_inputs | checked.declared_outputs:
        assert augmented.incoming(port) == checked.incoming(port)
    assert validate(model, augmented) == []


def test_auto_observe_to_an_undeclared_input_raises_the_checked_error():
    # the second leaf, which the first inhibits, is configured at a port
    # missing from the network
    model_text, network_text = deep_hierarchy_texts()
    model = parse_behavior_model(model_text.replace("/Port001/pos:i", "/Nowhere/pos:i", 1))
    network = parse_network(network_text)
    observer = Connection("/Leaf000/pos:o", "/Nowhere/pos:i")
    with pytest.raises(ParseError) as checked:
        NetworkDescription(network.components, network.connections + (observer,))
    with pytest.raises(ParseError) as raised:
        apply_auto_observe(model, network)
    assert str(raised.value) == str(checked.value)
    assert str(raised.value) == "connection references undeclared input port '/Nowhere/pos:i'"


@pytest.mark.parametrize("auto_observe", [True, False])
def test_v3_findings_at_256_leaves_are_capped_per_port(auto_observe):
    model_text, network_text = deep_hierarchy_texts()
    model, network = parse_behavior_model(model_text), parse_network(network_text)
    outputs = network.declared_outputs
    present = {(c.source, c.destination) for c in network.connections}
    # per port, each missing (leaf, literal) in walk order; with auto-observe,
    # one per missing connection, named by the first leaf that needs it
    findings = {}
    for leaf in model.leaf_behaviors():
        for conn in leaf.configuration:
            for port in model.plan(leaf.name).needed:
                if port in outputs and (port, conn.destination) not in present:
                    key = port if auto_observe else (leaf.name, port)
                    findings.setdefault(conn.destination, {}).setdefault(key, (leaf.name, port))
    diagnostics = validate(model, network, auto_observe=auto_observe)
    assert {d.severity for d in diagnostics} == {WARNING if auto_observe else ERROR}
    assert {d.code for d in diagnostics} == {"V3"}
    assert len(diagnostics) <= len(network.declared_inputs) * (MAX_V3_PER_PORT + 1)
    summaries = {d.location: d.message for d in diagnostics if d.message.startswith("... and ")}
    for destination, found in findings.items():
        found = list(found.values())
        shown = [d for d in diagnostics if f" -> {destination} " in d.message]
        literal = 3 if auto_observe else 1  # the word of the message that names it
        assert [(d.location, d.message.split()[literal]) for d in shown] == (
            sorted(found[:MAX_V3_PER_PORT]))
        more = len(found) - MAX_V3_PER_PORT
        assert (destination in summaries) == (more > 0)
        if more > 0:
            assert summaries[destination].startswith(f"... and {more} more ")
            assert summaries[destination].endswith(f"{destination} ({len(found)} in all)")
    if auto_observe:
        added = apply_auto_observe(model, network).connections[len(network.connections):]
        assert sum(map(len, findings.values())) == len(added)


def test_inhibition_cycle_is_v4():
    text = (
        '<behaviors>'
        '<behavior name="A"><config at="/X:i">/a:o</config><inhibition>B</inhibition></behavior>'
        '<behavior name="B"><config at="/X:i">/b:o</config><inhibition>A</inhibition></behavior>'
        "</behaviors>"
    )
    network = parse_network(
        '<application><module name="S"><output>/a:o</output><output>/b:o</output></module>'
        '<module name="D"><input>/X:i</input></module>'
        '<connection from="/a:o" to="/X:i"/><connection from="/b:o" to="/X:i"/></application>'
    )
    model = parse_behavior_model(text)
    v4 = [d for d in validate(model, network) if d.code == "V4"]
    assert len(v4) == 1 and "A -> B -> A" in v4[0].message


def test_dense_sibling_groups_report_one_v4_each():
    # every member inhibits all the others; one V4 per back edge made
    # n(n-1)/2 reports per group, each a slice of the search path
    n = 200

    def dense(prefix):
        names = [f"{prefix}{i}" for i in range(n)]
        return tuple(BehaviorNode(name=name, kind=BEHAVIOR,
                                  inhibitions=tuple(t for t in names if t != name))
                     for name in names)

    group = BehaviorNode(name="Group", kind=META_BEHAVIOR, children=dense("In"))
    model = BehaviorModel(roots=(group, *dense("Top")))
    v4 = [(d.location, d.message) for d in validate(model, NetworkDescription()) if d.code == "V4"]
    assert v4 == [("In0", "inhibition cycle among siblings: In0 -> In1 -> In0"),
                  ("Top0", "inhibition cycle among siblings: Top0 -> Top1 -> Top0")]


def test_unresolved_inhibition_is_v5():
    text = '<behavior name="A"><config at="/X:i">/a:o</config><inhibition>Ghost</inhibition></behavior>'
    network = parse_network(
        '<application><module name="S"><output>/a:o</output></module>'
        '<module name="D"><input>/X:i</input></module>'
        '<connection from="/a:o" to="/X:i"/></application>'
    )
    diagnostics = validate(parse_behavior_model(text), network)
    assert [d.code for d in diagnostics] == ["V5"]


def test_clean_model_validates_empty():
    model, network = _fig3()
    assert validate(model, apply_auto_observe(model, network)) == []


def test_validate_is_deterministic():
    model, network = _fig3()
    first = validate(model, network)
    second = validate(model, network)
    assert first == second


def test_top_level_nodes_may_inhibit_each_other():
    model = parse_behavior_model(fixture("conflict-demo").model.read_text().replace(
        '<behavior name="Pong">\n      <config at="/Motor/cmd:i">/Pong/cmd:o</config>\n      <condition></condition>\n      <inhibition></inhibition>',
        '<behavior name="Pong">\n      <config at="/Motor/cmd:i">/Pong/cmd:o</config>\n      <condition></condition>\n      <inhibition>Ping</inhibition>',
    ))
    network = parse_network(fixture("conflict-demo").network.read_text())
    assert validate(model, network) == []


@st.composite
def inhibiting_models(draw):
    """(model, parent of each name) for a tree of up to 12 nodes whose
    inhibitions name siblings, cousins, ancestors, the node itself or names
    that do not exist; half of the drawn targets are siblings, so cycles
    among siblings are common."""
    count = draw(st.integers(1, 12))
    names = [f"N{i}" for i in range(count)]
    # node i hangs under an earlier node or is a root
    parents = [None] + [draw(st.one_of(st.none(), st.integers(0, i - 1))) for i in range(1, count)]
    parent_of = {name: None if j is None else names[j] for name, j in zip(names, parents)}
    anywhere = st.sampled_from(names + ["Ghost", "N99"])
    built = {}
    for i in reversed(range(count)):
        siblings = [n for n in names if parent_of[n] == parent_of[names[i]]]
        targets = draw(st.lists(st.one_of(st.sampled_from(siblings), anywhere), max_size=4))
        children = tuple(built.pop(names[k]) for k in range(i + 1, count) if parents[k] == i)
        built[names[i]] = BehaviorNode(
            name=names[i],
            kind=META_BEHAVIOR if children else BEHAVIOR,
            children=children,
            inhibitions=tuple(dict.fromkeys(targets)),
        )
    roots = tuple(built[name] for name in names if parent_of[name] is None)
    return BehaviorModel(roots=roots), parent_of


def _has_cycle(members, edges):
    """Whether repeatedly removing the members no edge points to leaves any."""
    indegree = {m: 0 for m in members}
    for _, target in edges:
        indegree[target] += 1
    ready = [m for m, d in indegree.items() if d == 0]
    removed = 0
    while ready:
        member = ready.pop()
        removed += 1
        for source, target in edges:
            if source == member:
                indegree[target] -= 1
                if indegree[target] == 0:
                    ready.append(target)
    return removed < len(members)


@settings(max_examples=100, deadline=None)
@given(inhibiting_models())
def test_inhibition_checks_match_a_reference_over_any_targets(case):
    model, parent_of = case
    diagnostics = validate(model, NetworkDescription())
    expected = []
    for node in model.walk():
        for target in node.inhibitions:
            if target not in parent_of:
                expected.append((node.name, "V5", f"inhibition target {target!r} does not exist"))
            elif parent_of[target] != parent_of[node.name]:
                expected.append((node.name, "V1", f"{node.name!r} may only inhibit siblings; "
                                                  f"{target!r} has a different parent"))
    assert [(d.location, d.code, d.message) for d in diagnostics
            if d.code in ("V1", "V5")] == sorted(expected)
    assert all(d.severity == ERROR for d in diagnostics)

    groups = {}
    for name, parent in parent_of.items():
        groups.setdefault(parent, []).append(name)
    cyclic = set()
    for parent, members in groups.items():
        edges = {(node.name, target) for node in model.walk() if node.name in members
                 for target in node.inhibitions if target in members}
        if _has_cycle(members, edges):
            cyclic.add(parent)
    flagged = set()
    for d in diagnostics:
        if d.code != "V4":
            continue
        cycle = d.message.removeprefix("inhibition cycle among siblings: ").split(" -> ")
        assert cycle[0] == cycle[-1] and d.location == min(cycle)
        assert all(target in _node(model, source).inhibitions
                   for source, target in zip(cycle, cycle[1:]))
        assert len({parent_of[name] for name in cycle}) == 1
        flagged.add(parent_of[d.location])
    assert flagged == cyclic


# ---------------------------------------------------------------------------
# Value, the immutable base of the model's records


def _value_classes(cls=Value):
    for sub in cls.__subclasses__():
        yield sub
        yield from _value_classes(sub)


def test_value_fields_are_the_constructor_parameters_in_order():
    for cls in _value_classes():
        parameters = list(inspect.signature(cls.__init__).parameters)[1:]
        assert tuple(parameters) == cls._fields or cls.__init__ is object.__init__, cls


def test_value_fields_cannot_be_assigned_or_deleted():
    conn = Connection("/a:o", "/b:i")
    with pytest.raises(AttributeError):
        conn.source = "/c:o"
    with pytest.raises(AttributeError):
        del conn.destination
    with pytest.raises(AttributeError):
        conn.label = "new"
    model = BehaviorModel()
    with pytest.raises(AttributeError):
        model.roots = ()
    assert conn == Connection("/a:o", "/b:i") and model.roots == ()


def test_value_equality_needs_the_same_class():
    a, b = Lit("/a:o"), Lit("/b:o")
    assert And((a, b)) != Or((a, b))
    assert And((a, b)) == And((Lit("/a:o"), Lit("/b:o")))
    assert TrueExpr() == TRUE and TRUE != FALSE
    assert Lit("/a:o") != "/a:o" and Not(a) != a


def test_equal_values_hash_equal_and_normalize_dedupes_them():
    a, b = Lit("/a:o"), Lit("/b:o")
    assert hash(Lit("/a:o")) == hash(a) and hash(Not(Lit("/a:o"))) == hash(Not(a))
    assert hash(And((a, Not(b)))) == hash(And((Lit("/a:o"), Not(Lit("/b:o")))))
    assert normalize(And((a, Not(b), Lit("/a:o"), Not(Lit("/b:o"))))) == And((a, Not(b)))
    assert normalize(Or((And((a, b)), And((Lit("/a:o"), Lit("/b:o")))))) == And((a, b))
    assert len({Connection("/a:o", "/b:i"), Connection("/a:o", "/b:i")}) == 1


def test_value_reprs_keep_the_dataclass_text():
    assert repr(Connection("/a:o", "/b:i")) == "Connection(source='/a:o', destination='/b:i')"
    assert repr(Lit("/a:o")) == "Lit(port='/a:o')"
    assert repr(Not(Lit("/a:o"))) == "Not(child=Lit(port='/a:o'))"
    assert repr(TrueExpr()) == "TrueExpr()"
    assert repr(Diagnostic(ERROR, "V2", "missing")) == (
        "Diagnostic(severity='error', code='V2', message='missing', location='')"
    )
    assert repr(BehaviorModel()) == "BehaviorModel(roots=())"


def test_value_keyword_construction_with_defaults():
    node = BehaviorNode(name="n", kind=BEHAVIOR)
    assert (node.configuration, node.children, node.condition, node.inhibitions) == ((), (), TRUE, ())
    source = PeriodicSource(name="S", port="/a:o", period_ms=10)
    assert (source.phase_ms, source.active) == (0, ())
    diagnostic = Diagnostic(severity=WARNING, code="V3", message="m")
    assert diagnostic.location == "" and diagnostic == Diagnostic(WARNING, "V3", "m", "")


def test_value_constructor_errors_name_the_class():
    with pytest.raises(TypeError) as missing:
        Diagnostic(ERROR)
    assert str(missing.value) == (
        "Diagnostic.__init__() missing 2 required positional arguments: 'code' and 'message'"
    )
    with pytest.raises(TypeError) as unknown:
        BehaviorNode("n", BEHAVIOR, label="x")
    assert str(unknown.value) == "BehaviorNode.__init__() got an unexpected keyword argument 'label'"


def test_value_default_dicts_are_not_shared():
    assert NetworkDescription().windows == {}
    assert NetworkDescription().windows is not NetworkDescription().windows


def test_decision_checks_its_reason():
    with pytest.raises(ValueError, match="SELECTED"):
        Decision(ACCEPT, NO_RULE, {})
    assert Decision(ACCEPT, SELECTED, {}).reason == SELECTED


def test_values_copy_and_pickle():
    node = BehaviorNode("n", BEHAVIOR, (Connection("/a:o", "/b:i"),), condition=Not(Lit("/c:o")))
    network = parse_network(FIG2_NETWORK)
    for value in (node, network, parse_behavior_model(FIG3_MODEL)):
        for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert copied == value
