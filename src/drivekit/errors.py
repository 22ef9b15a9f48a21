"""Exception hierarchy, each error with a stable code, the one input-file
reader, and the integer and number rules that every input value meets."""
import json
import math
from numbers import Real


class DrivekitError(Exception):
    code = "ERROR"

    def __init__(self, message: str = ""):
        super().__init__(message)
        self.message = message

    def to_dict(self) -> dict:
        return {"error": self.code, "message": self.message}


class SchemaError(DrivekitError):
    code = "SCHEMA_ERROR"


class RefError(DrivekitError):
    code = "REF_ERROR"


class LengthError(DrivekitError):
    code = "LENGTH_ERROR"


class TopologyCycleError(DrivekitError):
    code = "TOPOLOGY_CYCLE"


class DegenerateError(DrivekitError):
    code = "DEGENERATE"


class InsufficientFutureError(DrivekitError):
    code = "INSUFFICIENT_FUTURE"


class AlignError(DrivekitError):
    code = "ALIGN_ERROR"


class NoLaneError(DrivekitError):
    code = "NO_LANE"


class ParamError(DrivekitError):
    code = "PARAM_ERROR"


class MagicError(DrivekitError):
    code = "MAGIC_ERROR"


class VersionError(DrivekitError):
    code = "VERSION_ERROR"


class TruncatedError(DrivekitError):
    code = "TRUNCATED"


class FormatError(DrivekitError):
    code = "FORMAT_ERROR"


class FileError(DrivekitError):
    code = "FILE_ERROR"


def is_int(value) -> bool:
    """An int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value, name: str, error=SchemaError) -> int:
    """`value` itself if it is an int and not a bool; anything else raises
    `error` naming `name`."""
    if not is_int(value):
        raise error(f"{name} must be an integer, got {value!r}")
    return value


def as_finite(value, name: str, error=SchemaError) -> float:
    """`value` as a float: a real number (numpy scalars included), not a bool,
    finite as a float. Anything else raises `error` naming `name`."""
    if type(value) is not float:  # a float, the common case, needs no type test
        # int/float before the Real ABC, which costs several times more
        real = isinstance(value, (int, float)) or isinstance(value, Real)
        if isinstance(value, bool) or not real:
            raise error(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an integer beyond float range
            raise error(f"{name} is too large for a float") from None
    if not math.isfinite(value):
        raise error(f"{name} must be finite, got {value!r}")
    return value


def _at(where, build, *args):
    """build(*args), with `where` put before the message of any error it raises."""
    try:
        return build(*args)
    except DrivekitError as exc:
        raise type(exc)(f"{where}: {exc.message}") from None


def read_bytes(path) -> bytes:
    """The bytes of the file at `path`. An OSError raises FileError naming `path`."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise FileError(f"{path}: {exc.strerror}") from None


def read_text(path, error=SchemaError) -> str:
    """The text of the UTF-8 file at `path`, read with universal newlines.
    An OSError raises FileError and bad UTF-8 raises `error`, both naming `path`."""
    try:
        text = read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from None
    # universal newlines; most files hold no "\r", and the scan for one is cheap
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def parse_json(text, error, where):
    """The JSON value in `text` (str, or bytes taken as UTF-8). Bad UTF-8, bad
    JSON and too deep nesting raise `error`, its message starting with `where`."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON: {exc}") from None
