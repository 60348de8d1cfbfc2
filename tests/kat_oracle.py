"""Independent reference oracle for the frozen known-answer vectors.

Deliberately reimplements every layer from its defining formula in plain
loops, with no imports from the package under test: symbols are built one
at a time, nibbles live in flat lists, rows are indexed with the modular
formulas directly.  Run as a script to print the two vectors; the test
suite also calls into it to cross-check the frozen values.
"""

FNV_OFFSET = 0xCBF29CE484222325
FNV_PRIME = 0x00000100000001B3
MASK64 = (1 << 64) - 1


def fnv1a(data):
    h = FNV_OFFSET
    for b in data:
        h = ((h ^ b) * FNV_PRIME) & MASK64
    return h if h else FNV_OFFSET


def xorshift(s):
    s = (s ^ (s << 13)) & MASK64
    s = s ^ (s >> 7)
    s = (s ^ (s << 17)) & MASK64
    return s


def cube_encode(data):
    out = []
    for p, b in enumerate(data):
        v = (b - 42) % 256
        q = v // 81
        x = (v % 81) // 9
        y = (v % 81) % 9
        z = (p + q) % 9
        out += [ord("0") + x, ord("0") + y, 42 + 9 * y + z]
    return bytes(out)


def cube_decode(encoded):
    """Invert cube_encode triple by triple.

    Returns the decoded bytes, or (error class name, triple index) for the
    first triple that is off the alphabet, whose depth symbol disagrees with
    its column digit (IntegrityError), or whose depth offset q is over 3 or
    whose symbol value 81q + 9x + y is past 255 (RangeError): no byte
    encodes to such a triple.
    """
    out = []
    for p in range(len(encoded) // 3):
        x = encoded[3 * p] - ord("0")
        y = encoded[3 * p + 1] - ord("0")
        m = encoded[3 * p + 2] - 42
        if not (0 <= x <= 8 and 0 <= y <= 8 and 0 <= m <= 80) or m // 9 != y:
            return ("IntegrityError", p)
        q = (m % 9 - p) % 9
        v = 81 * q + 9 * x + y
        if q > 3 or v > 255:
            return ("RangeError", p)
        out.append((v + 42) % 256)
    return bytes(out)


def rotl_744(data, k):
    bits = "".join(f"{b:08b}" for b in data)
    bits = bits[k % 744:] + bits[: k % 744]
    return bytes(int(bits[i : i + 8], 2) for i in range(0, 744, 8))


def xor_bytes(a, b):
    return bytes(x ^ y for x, y in zip(a, b))


def sbox_layer(state, rotation):
    nibbles = []
    for b in state:
        nibbles += [b >> 4, b & 0xF]
    out = []
    for t in range(0, len(nibbles), 3):
        a, b, c = nibbles[t], nibbles[t + 1], nibbles[t + 2]
        out += [b, c, (a + c + 8 + rotation) % 16]
    return bytes((out[i] << 4) | out[i + 1] for i in range(0, len(out), 2))


def shift_layer(state):
    out = bytearray(93)
    for r in range(3):
        for j in range(31):
            out[31 * r + j] = state[31 * r + (j + r) % 31]
    return bytes(out)


def mix_layer(state):
    out = bytearray(93)
    for j in range(31):
        u, v, w = state[j], state[31 + j], state[62 + j]
        out[j] = u ^ v
        out[31 + j] = v ^ w
        out[62 + j] = u ^ v ^ w
    return bytes(out)


def key_schedule(key31):
    s = fnv1a(key31)
    s = xorshift(s)
    rho = s % 744
    s = xorshift(s)
    rotation = s % 16
    k93 = rotl_744(cube_encode(key31), rho)
    round_keys = [rotl_744(k93, (47 * r) % 744) for r in range(17)]
    return rho, rotation, round_keys


def encrypt_block(pt31, key31):
    rho, rotation, round_keys = key_schedule(key31)
    state = xor_bytes(cube_encode(pt31), round_keys[0])
    for r in range(1, 17):
        state = sbox_layer(state, rotation)
        state = shift_layer(state)
        if r % 2 == 0:
            state = mix_layer(state)
        state = xor_bytes(state, round_keys[r])
    return state


def encrypt_container(message, key31):
    bits = "".join(f"{b:08b}" for b in message)
    out = b"P3DK" + bytes([1, 0]) + len(bits).to_bytes(8, "little")
    for i in range(0, len(bits), 243):
        chunk = bits[i : i + 243].ljust(248, "0")
        out += encrypt_block(int(chunk, 2).to_bytes(31, "big"), key31)
    return out


KAT1_KEY = bytes([0x2A] * 31)
KAT1_PLAINTEXT = bytes(31)

KAT2_KEY = bytes(range(1, 31)) + b"\x20"
KAT2_MESSAGE = bytes(range(40))


def main():
    ct1 = encrypt_block(KAT1_PLAINTEXT, KAT1_KEY)
    print(f"KAT1 key        = {KAT1_KEY.hex()}")
    print(f"KAT1 plaintext  = {KAT1_PLAINTEXT.hex()}")
    print(f"KAT1 ciphertext = {ct1.hex()}")
    box = encrypt_container(KAT2_MESSAGE, KAT2_KEY)
    print(f"KAT2 key        = {KAT2_KEY.hex()}")
    print(f"KAT2 message    = {KAT2_MESSAGE.hex()}")
    print(f"KAT2 container  = {box.hex()}")


if __name__ == "__main__":
    main()
