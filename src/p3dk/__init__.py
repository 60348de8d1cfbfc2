"""243-bit block cipher with a 9x9x9 symbol-cube codec and dynamic S-box.

Research reconstruction for study and benchmarking.  Not a vetted cipher;
do not use it to protect real data.

The package exports the stream API; block-level pieces are imported from
p3dk.cipher, p3dk.sbox and p3dk.cube.
"""

from .cipher import decrypt_stream, encrypt_stream, generate_master_key
from .errors import P3DKError

__version__ = "0.1.0"

__all__ = ["P3DKError", "decrypt_stream", "encrypt_stream", "generate_master_key"]
