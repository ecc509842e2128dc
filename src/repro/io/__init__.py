"""Serialization utilities: JSON, checkpoints, reports."""

from .jsonio import (dump_json, dump_jsonl, dumps_json, jsonable,
                     load_jsonl)
from .serialization import save_checkpoint, load_checkpoint
from .report import markdown_table, csv_table, format_float

__all__ = [
    "dump_json", "dump_jsonl", "dumps_json", "jsonable", "load_jsonl",
    "save_checkpoint", "load_checkpoint",
    "markdown_table", "csv_table", "format_float",
]
