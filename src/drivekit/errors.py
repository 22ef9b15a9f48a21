"""Exception hierarchy, each error with a stable code, and the one input-file reader."""
import json


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


def read_text(path, error=SchemaError) -> str:
    """The text of the UTF-8 file at `path`, read with universal newlines.
    An OSError raises FileError and bad UTF-8 raises `error`, both naming `path`."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileError(f"{path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not valid UTF-8: {exc}") from None


def parse_json(text, error, where):
    """The JSON value in `text` (str, or bytes taken as UTF-8). Bad UTF-8, bad
    JSON and too deep nesting raise `error`, its message starting with `where`."""
    try:
        if isinstance(text, (bytes, bytearray)):
            text = text.decode("utf-8")
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{where}: not valid JSON: {exc}") from None
